//! SQL tokenizer.

use shareddb_common::{Error, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (upper-cased keywords are matched case-insensitively).
    Ident(String),
    /// Numeric literal.
    Number(String),
    /// String literal (quotes removed).
    StringLit(String),
    /// A prepared-statement parameter: `?` (`None`, numbered by position)
    /// or `?N` (`Some(N - 1)`: numbered from 1, as in SQLite).
    Param(Option<usize>),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
}

impl Token {
    /// True when the token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a SQL string. `?0` and a statement that mixes `?` with `?N`
/// are errors.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let bytes = sql.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '?' => {
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let number = match &sql[start..i] {
                    "" => None,
                    digits => match digits.parse::<usize>() {
                        Ok(n) if n > 0 => Some(n - 1),
                        _ => {
                            return Err(Error::Parse(format!(
                                "?{digits}: parameters are numbered from ?1"
                            )))
                        }
                    },
                };
                tokens.push(Token::Param(number));
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(Error::Parse(format!("unexpected character '!' at {i}")));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                // String literal; '' escapes a quote. Bytes are collected raw
                // and turned back into a string in one step, so multi-byte
                // UTF-8 characters survive (pushing `byte as char` would
                // mangle them into Latin-1 mojibake). The quote byte 0x27
                // never occurs inside a UTF-8 continuation sequence, so
                // byte-wise scanning is safe.
                let mut s: Vec<u8> = Vec::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(Error::Parse("unterminated string literal".into())),
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push(b'\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(&b) => {
                            s.push(b);
                            i += 1;
                        }
                    }
                }
                let s = String::from_utf8(s)
                    .map_err(|_| Error::Parse("invalid UTF-8 in string literal".into()))?;
                tokens.push(Token::StringLit(s));
            }
            '-' => {
                // Could be a comment `--`, a negative number, or minus.
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    i += 1;
                }
                tokens.push(Token::Number(sql[start..i].to_string()));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(sql[start..i].to_string()));
            }
            other => {
                return Err(Error::Parse(format!(
                    "unexpected character '{other}' at position {i}"
                )))
            }
        }
    }
    let numbered = |n: bool| {
        tokens
            .iter()
            .any(|t| matches!(t, Token::Param(p) if p.is_some() == n))
    };
    if numbered(true) && numbered(false) {
        return Err(Error::Parse(
            "a statement numbers all its parameters (?N) or none (?)".into(),
        ));
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let tokens = tokenize("SELECT * FROM r WHERE a >= 10 AND b = 'x''y' -- comment\n").unwrap();
        assert!(tokens.contains(&Token::Star));
        assert!(tokens.contains(&Token::GtEq));
        assert!(tokens.contains(&Token::Number("10".into())));
        assert!(tokens.contains(&Token::StringLit("x'y".into())));
        assert!(tokens.iter().any(|t| t.is_keyword("select")));
        // The comment is skipped entirely.
        assert!(!tokens.iter().any(|t| t.is_keyword("comment")));
    }

    #[test]
    fn escaped_quotes_and_unicode_in_string_literals() {
        // '' escaping in every position: start, middle, end, doubled-up.
        let tokens = tokenize("'''start' 'mid''dle' 'end''' ''''").unwrap();
        let lits: Vec<&str> = tokens
            .iter()
            .map(|t| match t {
                Token::StringLit(s) => s.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(lits, vec!["'start", "mid'dle", "end'", "'"]);
        // Multi-byte UTF-8 survives intact, also next to an escaped quote.
        let tokens = tokenize("'café' 'Zürich''s – best'").unwrap();
        assert_eq!(tokens[0], Token::StringLit("café".into()));
        assert_eq!(tokens[1], Token::StringLit("Zürich's – best".into()));
        // The empty string is a valid literal.
        assert_eq!(tokenize("''").unwrap(), vec![Token::StringLit("".into())]);
    }

    #[test]
    fn params_and_comparisons() {
        let tokens = tokenize("a < ? AND b <> ? AND c != 3.5").unwrap();
        assert_eq!(
            tokens.iter().filter(|t| **t == Token::Param(None)).count(),
            2
        );
        assert_eq!(tokens.iter().filter(|t| **t == Token::NotEq).count(), 2);
        assert!(tokens.contains(&Token::Number("3.5".into())));
    }

    #[test]
    fn numbered_params_count_from_one_and_do_not_mix() {
        let tokens = tokenize("A = ?2 AND B = ?1 AND C = ?10").unwrap();
        let params: Vec<&Token> = tokens
            .iter()
            .filter(|t| matches!(t, Token::Param(_)))
            .collect();
        assert_eq!(
            params,
            [
                &Token::Param(Some(1)),
                &Token::Param(Some(0)),
                &Token::Param(Some(9))
            ]
        );
        assert!(tokenize("A = ?0").is_err());
        assert!(tokenize("A = ?1 AND B = ?").is_err());
        assert!(tokenize("A = ? AND B = ?2").is_err());
    }

    #[test]
    fn errors() {
        assert!(tokenize("SELECT 'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a # b").is_err());
    }
}
