//! A small textual syntax for conjunctive queries and database instances.
//!
//! Queries use the familiar Datalog-ish notation
//!
//! ```text
//! Q(x, z) :- R(x, y), S(y, z).
//! ```
//!
//! with an empty head (`Q() :- …`) for Boolean queries.  Database instances
//! are lists of ground facts, one per statement:
//!
//! ```text
//! R(1, 2). R(2, 3). S(a, b).
//! ```
//!
//! Integer constants become [`Value::Int`]; everything else becomes
//! [`Value::Text`].

use crate::query::{Atom, ConjunctiveQuery, QueryError};
use crate::structure::Structure;
use crate::value::Value;
use std::fmt;

/// Errors produced by the parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Unexpected character at the given byte offset.
    UnexpectedChar {
        /// Byte offset of the offending character.
        position: usize,
        /// The character that was found.
        found: char,
    },
    /// The input ended while more tokens were expected.
    UnexpectedEnd,
    /// Expected a specific token.
    Expected {
        /// Byte offset where the token was expected.
        position: usize,
        /// Human-readable description of the expected token.
        expected: &'static str,
    },
    /// The parsed query was structurally invalid.
    InvalidQuery(QueryError),
}

impl ParseError {
    /// Byte offset into the parsed text where the error occurred, when the
    /// error is anchored to a position ([`ParseError::UnexpectedChar`] and
    /// [`ParseError::Expected`]; end-of-input and structural query errors
    /// carry none).
    pub fn position(&self) -> Option<usize> {
        match self {
            ParseError::UnexpectedChar { position, .. } => Some(*position),
            ParseError::Expected { position, .. } => Some(*position),
            ParseError::UnexpectedEnd | ParseError::InvalidQuery(_) => None,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedChar { position, found } => {
                write!(f, "unexpected character {found:?} at byte {position}")
            }
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseError::Expected { position, expected } => {
                write!(f, "expected {expected} at byte {position}")
            }
            ParseError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<QueryError> for ParseError {
    fn from(e: QueryError) -> ParseError {
        ParseError::InvalidQuery(e)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    Ident(String),
    Number(i64),
    LParen,
    RParen,
    Comma,
    Turnstile,
    Period,
}

struct Lexer<'a> {
    input: &'a str,
    position: usize,
    tokens: Vec<(usize, Token)>,
}

impl<'a> Lexer<'a> {
    fn tokenize(input: &'a str) -> Result<Vec<(usize, Token)>, ParseError> {
        let mut lexer = Lexer {
            input,
            position: 0,
            tokens: Vec::new(),
        };
        lexer.run()?;
        Ok(lexer.tokens)
    }

    fn run(&mut self) -> Result<(), ParseError> {
        let bytes = self.input.as_bytes();
        while self.position < bytes.len() {
            let start = self.position;
            let c = self.input[self.position..]
                .chars()
                .next()
                .expect("in range");
            match c {
                c if c.is_whitespace() => self.position += c.len_utf8(),
                '%' | '#' => {
                    // Comment until end of line.
                    while self.position < bytes.len() && bytes[self.position] != b'\n' {
                        self.position += 1;
                    }
                }
                '(' => {
                    self.tokens.push((start, Token::LParen));
                    self.position += 1;
                }
                ')' => {
                    self.tokens.push((start, Token::RParen));
                    self.position += 1;
                }
                ',' => {
                    self.tokens.push((start, Token::Comma));
                    self.position += 1;
                }
                '.' => {
                    self.tokens.push((start, Token::Period));
                    self.position += 1;
                }
                ':' => {
                    if self.input[self.position..].starts_with(":-") {
                        self.tokens.push((start, Token::Turnstile));
                        self.position += 2;
                    } else {
                        return Err(ParseError::UnexpectedChar {
                            position: start,
                            found: ':',
                        });
                    }
                }
                '-' => {
                    // Negative integer literal.
                    self.position += 1;
                    let number = self.lex_number(start, true)?;
                    self.tokens.push((start, number));
                }
                c if c.is_ascii_digit() => {
                    let number = self.lex_number(start, false)?;
                    self.tokens.push((start, number));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let mut end = self.position;
                    for ch in self.input[self.position..].chars() {
                        if ch.is_alphanumeric() || ch == '_' || ch == '\'' {
                            end += ch.len_utf8();
                        } else {
                            break;
                        }
                    }
                    let ident = self.input[self.position..end].to_string();
                    self.position = end;
                    self.tokens.push((start, Token::Ident(ident)));
                }
                other => {
                    return Err(ParseError::UnexpectedChar {
                        position: start,
                        found: other,
                    })
                }
            }
        }
        Ok(())
    }

    fn lex_number(&mut self, start: usize, negative: bool) -> Result<Token, ParseError> {
        let digits_start = self.position;
        let bytes = self.input.as_bytes();
        while self.position < bytes.len() && bytes[self.position].is_ascii_digit() {
            self.position += 1;
        }
        if self.position == digits_start {
            return Err(ParseError::Expected {
                position: start,
                expected: "digit",
            });
        }
        let magnitude: i64 = self.input[digits_start..self.position]
            .parse()
            .map_err(|_| ParseError::Expected {
                position: start,
                expected: "integer that fits i64",
            })?;
        Ok(Token::Number(if negative { -magnitude } else { magnitude }))
    }
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    index: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.index).map(|(_, t)| t)
    }

    fn next(&mut self) -> Result<(usize, Token), ParseError> {
        let item = self
            .tokens
            .get(self.index)
            .cloned()
            .ok_or(ParseError::UnexpectedEnd)?;
        self.index += 1;
        Ok(item)
    }

    fn expect(&mut self, expected: &Token, label: &'static str) -> Result<(), ParseError> {
        let (position, token) = self.next()?;
        if &token == expected {
            Ok(())
        } else {
            Err(ParseError::Expected {
                position,
                expected: label,
            })
        }
    }

    fn ident(&mut self, label: &'static str) -> Result<String, ParseError> {
        let (position, token) = self.next()?;
        match token {
            Token::Ident(s) => Ok(s),
            _ => Err(ParseError::Expected {
                position,
                expected: label,
            }),
        }
    }

    fn done(&self) -> bool {
        self.index >= self.tokens.len()
    }

    fn parse_atom_args(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&Token::LParen, "'('")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Token::RParen) {
            self.next()?;
            return Ok(args);
        }
        loop {
            args.push(self.ident("variable name")?);
            match self.next()? {
                (_, Token::Comma) => continue,
                (_, Token::RParen) => break,
                (position, _) => {
                    return Err(ParseError::Expected {
                        position,
                        expected: "',' or ')'",
                    })
                }
            }
        }
        Ok(args)
    }
}

/// Parses a conjunctive query, e.g. `Q(x,z) :- R(x,y), S(y,z).`
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, ParseError> {
    let tokens = Lexer::tokenize(input)?;
    let mut parser = Parser { tokens, index: 0 };
    let name = parser.ident("query name")?;
    let head = parser.parse_atom_args()?;
    parser.expect(&Token::Turnstile, "':-'")?;
    let mut atoms = Vec::new();
    loop {
        let relation = parser.ident("relation name")?;
        let args = parser.parse_atom_args()?;
        atoms.push(Atom::new(relation, args));
        match parser.peek() {
            Some(Token::Comma) => {
                parser.next()?;
            }
            Some(Token::Period) => {
                parser.next()?;
                break;
            }
            None => break,
            Some(_) => {
                let (position, _) = parser.next()?;
                return Err(ParseError::Expected {
                    position,
                    expected: "',' or '.'",
                });
            }
        }
    }
    if !parser.done() {
        let (position, _) = parser.next()?;
        return Err(ParseError::Expected {
            position,
            expected: "end of input",
        });
    }
    Ok(ConjunctiveQuery::new(name, head, atoms)?)
}

/// Parses a database instance given as a list of ground facts,
/// e.g. `R(1,2). R(2,3). S(a,b).`
pub fn parse_structure(input: &str) -> Result<Structure, ParseError> {
    let tokens = Lexer::tokenize(input)?;
    let mut parser = Parser { tokens, index: 0 };
    let mut structure = Structure::empty();
    while !parser.done() {
        let relation = parser.ident("relation name")?;
        parser.expect(&Token::LParen, "'('")?;
        let mut tuple = Vec::new();
        if parser.peek() != Some(&Token::RParen) {
            loop {
                let (position, token) = parser.next()?;
                let value = match token {
                    Token::Number(n) => Value::Int(n),
                    Token::Ident(s) => Value::Text(s),
                    _ => {
                        return Err(ParseError::Expected {
                            position,
                            expected: "constant",
                        })
                    }
                };
                tuple.push(value);
                match parser.next()? {
                    (_, Token::Comma) => continue,
                    (_, Token::RParen) => break,
                    (position, _) => {
                        return Err(ParseError::Expected {
                            position,
                            expected: "',' or ')'",
                        })
                    }
                }
            }
        } else {
            parser.next()?;
        }
        structure.add_fact(&relation, tuple);
        if parser.peek() == Some(&Token::Period) {
            parser.next()?;
        }
    }
    Ok(structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hom::count_homomorphisms;
    use bqc_obs::Budget;

    #[test]
    fn parse_simple_query() {
        let q = parse_query("Q(x, z) :- R(x, y), S(y, z).").unwrap();
        assert_eq!(q.name, "Q");
        assert_eq!(q.head(), &["x", "z"]);
        assert_eq!(q.atoms().len(), 2);
        assert_eq!(q.vars(), &["x", "z", "y"]);
    }

    #[test]
    fn parse_boolean_query_and_primes() {
        let q = parse_query("Q1() :- A(x1, x2), B(x1', x2')").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.num_vars(), 4);
        assert!(q.vars().contains(&"x1'".to_string()));
    }

    #[test]
    fn parse_with_comments_and_whitespace() {
        let q =
            parse_query("Q() :- % the triangle\n  R(x, y),\n  R(y, z), # wraps around\n  R(z, x).")
                .unwrap();
        assert_eq!(q.atoms().len(), 3);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(
            parse_query("Q(x)"),
            Err(ParseError::UnexpectedEnd)
        ));
        assert!(matches!(
            parse_query("Q(x) : R(x)"),
            Err(ParseError::UnexpectedChar { .. })
        ));
        assert!(matches!(
            parse_query("Q(z) :- R(x, y)."),
            Err(ParseError::InvalidQuery(QueryError::HeadVariableNotInBody(
                _
            )))
        ));
        assert!(matches!(
            parse_query("Q(x) :- R(x) S(x)"),
            Err(ParseError::Expected { .. })
        ));
    }

    #[test]
    fn parse_structure_facts() {
        let s = parse_structure("R(1, 2). R(2, 3). S(a, b). T().").unwrap();
        assert_eq!(s.num_facts("R"), 2);
        assert_eq!(s.num_facts("S"), 1);
        assert_eq!(s.num_facts("T"), 1);
        assert!(s.contains_fact("S", &vec![Value::text("a"), Value::text("b")]));
        assert!(s.contains_fact("R", &vec![Value::int(1), Value::int(2)]));
    }

    #[test]
    fn parse_negative_integers() {
        let s = parse_structure("R(-1, 2).").unwrap();
        assert!(s.contains_fact("R", &vec![Value::int(-1), Value::int(2)]));
    }

    #[test]
    fn parsed_query_evaluates() {
        let q = parse_query("Q() :- R(x, y), R(y, z)").unwrap();
        let s = parse_structure("R(1,2). R(2,3). R(3,1).").unwrap();
        assert_eq!(
            count_homomorphisms(&q, &s, &Budget::unlimited()).unwrap(),
            3
        );
    }

    // ---- error paths: malformed atoms ------------------------------------

    #[test]
    fn atom_missing_closing_paren() {
        assert_eq!(parse_query("Q(x) :- R(x"), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse_structure("R(1"), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse_structure("R(1, 2"), Err(ParseError::UnexpectedEnd));
    }

    #[test]
    fn atom_missing_argument_list() {
        assert_eq!(parse_query("Q(x) :- R"), Err(ParseError::UnexpectedEnd));
        assert_eq!(
            parse_query("Q(x) :- R x"),
            Err(ParseError::Expected {
                position: 10,
                expected: "'('",
            })
        );
    }

    #[test]
    fn atom_with_dangling_or_leading_comma() {
        assert_eq!(
            parse_query("Q(x) :- R(x,)"),
            Err(ParseError::Expected {
                position: 12,
                expected: "variable name",
            })
        );
        assert_eq!(
            parse_query("Q(x) :- R(,x)"),
            Err(ParseError::Expected {
                position: 10,
                expected: "variable name",
            })
        );
    }

    #[test]
    fn atom_arguments_without_separator() {
        assert_eq!(
            parse_query("Q(x) :- R(x y)"),
            Err(ParseError::Expected {
                position: 12,
                expected: "',' or ')'",
            })
        );
        assert_eq!(
            parse_structure("R(1 2)"),
            Err(ParseError::Expected {
                position: 4,
                expected: "',' or ')'",
            })
        );
    }

    #[test]
    fn structure_rejects_non_constant_arguments() {
        assert_eq!(
            parse_structure("R((1))"),
            Err(ParseError::Expected {
                position: 2,
                expected: "constant",
            })
        );
        assert_eq!(
            parse_structure("R(-)"),
            Err(ParseError::Expected {
                position: 2,
                expected: "digit",
            })
        );
        assert_eq!(
            parse_structure("R(99999999999999999999)"),
            Err(ParseError::Expected {
                position: 2,
                expected: "integer that fits i64",
            })
        );
    }

    #[test]
    fn garbage_characters_are_located() {
        assert_eq!(
            parse_query("Q(x) ? R(x)"),
            Err(ParseError::UnexpectedChar {
                position: 5,
                found: '?',
            })
        );
        assert_eq!(
            parse_structure("R(1). @"),
            Err(ParseError::UnexpectedChar {
                position: 6,
                found: '@',
            })
        );
    }

    #[test]
    fn trailing_tokens_after_query_are_rejected() {
        assert_eq!(
            parse_query("Q(x) :- R(x). extra"),
            Err(ParseError::Expected {
                position: 14,
                expected: "end of input",
            })
        );
        assert_eq!(
            parse_query("Q(x) :- R(x) S(x)"),
            Err(ParseError::Expected {
                position: 13,
                expected: "',' or '.'",
            })
        );
    }

    // ---- error paths: unbound head variables -----------------------------

    #[test]
    fn unbound_head_variable_is_named() {
        assert_eq!(
            parse_query("Q(x, y) :- R(x, x)"),
            Err(ParseError::InvalidQuery(QueryError::HeadVariableNotInBody(
                "y".to_string()
            )))
        );
        // All head variables are checked, not just the first atom's.
        assert!(parse_query("Q(a, b, c) :- R(a, b), S(b, a)").is_err());
        assert!(parse_query("Q(x') :- R(x)").is_err());
    }

    #[test]
    fn inconsistent_arity_reports_both_uses() {
        assert_eq!(
            parse_query("Q() :- R(x), R(x, y)"),
            Err(ParseError::InvalidQuery(QueryError::InconsistentArity {
                relation: "R".to_string(),
                first: 1,
                second: 2,
            }))
        );
    }

    // ---- error paths: empty bodies ---------------------------------------

    #[test]
    fn empty_and_truncated_bodies() {
        assert_eq!(parse_query(""), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse_query("Q()"), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse_query("Q() :-"), Err(ParseError::UnexpectedEnd));
        assert_eq!(
            parse_query("Q() :- ."),
            Err(ParseError::Expected {
                position: 7,
                expected: "relation name",
            })
        );
    }

    #[test]
    fn empty_body_query_error_surfaces_through_from() {
        let direct = ConjunctiveQuery::new("Q".to_string(), vec![], vec![]);
        assert_eq!(direct.unwrap_err(), QueryError::EmptyBody);
        assert_eq!(
            ParseError::from(QueryError::EmptyBody),
            ParseError::InvalidQuery(QueryError::EmptyBody)
        );
    }

    #[test]
    fn parse_errors_display_positions() {
        let err = parse_query("Q(x) ? R(x)").unwrap_err();
        assert_eq!(err.to_string(), "unexpected character '?' at byte 5");
        let err = parse_query("Q(x)").unwrap_err();
        assert_eq!(err.to_string(), "unexpected end of input");
        let err = parse_query("Q(x) :- R(x,)").unwrap_err();
        assert_eq!(err.to_string(), "expected variable name at byte 12");
        let err = parse_query("Q(z) :- R(x)").unwrap_err();
        assert!(err.to_string().starts_with("invalid query:"), "{err}");
    }
}
