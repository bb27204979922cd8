//! SQL conformance corpus runner.
//!
//! Drives the checked-in corpus under `tests/sql_corpus/`: every `*.case`
//! file holds one SQL statement with its parameters and expected result
//! (or expected compile error). All positive cases compile together into
//! **one shared global plan** — exactly how a real workload deploys — and
//! then execute against a fixed, hand-computable dataset; any drift in
//! parser, logical optimisation, plan merging or operator behaviour fails
//! the run. The `sql_conformance` bin wires this into the CI lane, and the
//! workspace integration test `tests/sql_conformance.rs` runs the same
//! corpus under `cargo test`.
//!
//! ## Case file format
//!
//! Line-oriented; `--` starts a comment, blank lines are ignored:
//!
//! ```text
//! -- what the case covers
//! sql: SELECT U_NAME FROM USERS WHERE U_ID = ?
//! params: 7
//! order: exact            -- optional; default "any" (multiset compare)
//! expect:
//! 'user7'
//! ```
//!
//! Rows under `expect:` are comma-separated SQL literals (`1`, `2.5`,
//! `'text'`, `NULL`). Negative cases replace `expect:` with
//! `expect-error: <substring>` and must fail to compile with a message
//! containing the substring.
//!
//! ## The corpus dataset
//!
//! Deterministic and small enough to hand-compute expectations:
//!
//! * `USERS(U_ID pk, U_NAME, U_COUNTRY, U_ACCOUNT)` — 20 rows; `user{i}`,
//!   country cycles `CH, DE, IT`, account `i * 10`.
//! * `ORDERS(O_ID pk, O_U_ID, O_STATUS, O_TOTAL)` — 60 rows; user `o % 20`,
//!   status `OK` when `o % 4 == 0` else `PENDING`, total `(o % 7) as f64`.
//! * `ITEMS(IT_ID pk, IT_SUBJECT, IT_COST)` — 15 rows; subject cycles
//!   `ARTS, SCIENCE, HISTORY`, cost `(t % 5) as f64`.
//! * `TRI_R(A, B)`, `TRI_S(A, C)`, `TRI_T(B, C)` — the triangle-query
//!   fixture: `R` holds all 16 pairs over `0..4`, `S` maps `a → a + 1 mod
//!   4`, `T` maps `b → b + 2 mod 4`.

use shareddb_common::{DataType, Value};
use shareddb_core::demand::push_down;
use shareddb_core::{render_explain_text, Engine, EngineConfig};
use shareddb_sql::SqlCompiler;
use shareddb_storage::{Catalog, TableDef};
use std::path::Path;
use std::sync::Arc;

/// One parsed corpus case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Case name (file stem).
    pub name: String,
    /// The statement under test.
    pub sql: String,
    /// Execution parameters.
    pub params: Vec<Value>,
    /// What the case asserts.
    pub expect: Expectation,
}

/// Expected outcome of one case.
#[derive(Debug, Clone)]
pub enum Expectation {
    /// The statement compiles and returns exactly these rows. `exact`
    /// compares in order; otherwise rows compare as a multiset.
    Rows {
        /// Expected rows.
        rows: Vec<Vec<Value>>,
        /// Order-sensitive comparison.
        exact: bool,
    },
    /// The statement fails to compile with a message containing the needle.
    CompileError(String),
}

/// Outcome of a corpus run.
#[derive(Debug, Default)]
pub struct Report {
    /// Names of cases that passed.
    pub passed: Vec<String>,
    /// One line per failed case.
    pub failures: Vec<String>,
}

impl Report {
    /// True when every case passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Builds the fixed conformance catalog (see the module docs for the data).
pub fn corpus_catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("USERS")
                .column("U_ID", DataType::Int)
                .column("U_NAME", DataType::Text)
                .column("U_COUNTRY", DataType::Text)
                .column("U_ACCOUNT", DataType::Int)
                .primary_key(&["U_ID"]),
        )
        .expect("create USERS");
    catalog
        .create_table(
            TableDef::new("ORDERS")
                .column("O_ID", DataType::Int)
                .column("O_U_ID", DataType::Int)
                .column("O_STATUS", DataType::Text)
                .column("O_TOTAL", DataType::Float)
                .primary_key(&["O_ID"]),
        )
        .expect("create ORDERS");
    catalog
        .create_table(
            TableDef::new("ITEMS")
                .column("IT_ID", DataType::Int)
                .column("IT_SUBJECT", DataType::Text)
                .column("IT_COST", DataType::Float)
                .primary_key(&["IT_ID"]),
        )
        .expect("create ITEMS");
    for (name, cols) in [
        ("TRI_R", ["A", "B"]),
        ("TRI_S", ["A", "C"]),
        ("TRI_T", ["B", "C"]),
    ] {
        catalog
            .create_table(
                TableDef::new(name)
                    .column(cols[0], DataType::Int)
                    .column(cols[1], DataType::Int),
            )
            .expect("create triangle table");
    }
    let countries = ["CH", "DE", "IT"];
    let subjects = ["ARTS", "SCIENCE", "HISTORY"];
    catalog
        .bulk_load(
            "USERS",
            (0..20i64)
                .map(|i| {
                    shareddb_common::tuple![
                        i,
                        format!("user{i}"),
                        countries[(i % 3) as usize],
                        i * 10
                    ]
                })
                .collect(),
        )
        .expect("load USERS");
    catalog
        .bulk_load(
            "ORDERS",
            (0..60i64)
                .map(|o| {
                    shareddb_common::tuple![
                        o,
                        o % 20,
                        if o % 4 == 0 { "OK" } else { "PENDING" },
                        (o % 7) as f64
                    ]
                })
                .collect(),
        )
        .expect("load ORDERS");
    catalog
        .bulk_load(
            "ITEMS",
            (0..15i64)
                .map(|t| shareddb_common::tuple![t, subjects[(t % 3) as usize], (t % 5) as f64])
                .collect(),
        )
        .expect("load ITEMS");
    catalog
        .bulk_load(
            "TRI_R",
            (0..4i64)
                .flat_map(|a| (0..4i64).map(move |b| shareddb_common::tuple![a, b]))
                .collect(),
        )
        .expect("load TRI_R");
    catalog
        .bulk_load(
            "TRI_S",
            (0..4i64)
                .map(|a| shareddb_common::tuple![a, (a + 1) % 4])
                .collect(),
        )
        .expect("load TRI_S");
    catalog
        .bulk_load(
            "TRI_T",
            (0..4i64)
                .map(|b| shareddb_common::tuple![b, (b + 2) % 4])
                .collect(),
        )
        .expect("load TRI_T");
    Arc::new(catalog)
}

/// Parses one `*.case` file.
pub fn parse_case(name: &str, text: &str) -> Result<Case, String> {
    let mut sql = None;
    let mut params = Vec::new();
    let mut exact = false;
    let mut expect: Option<Expectation> = None;
    let mut in_rows = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        let err = |m: String| format!("{name}:{}: {m}", lineno + 1);
        if in_rows {
            let row = parse_values(line).map_err(&err)?;
            match expect.as_mut() {
                Some(Expectation::Rows { rows, .. }) => rows.push(row),
                _ => return Err(err("row outside expect block".into())),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("sql:") {
            sql = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("params:") {
            params = parse_values(rest.trim()).map_err(&err)?;
        } else if let Some(rest) = line.strip_prefix("order:") {
            exact = match rest.trim() {
                "exact" => true,
                "any" => false,
                other => return Err(err(format!("unknown order mode {other}"))),
            };
        } else if let Some(rest) = line.strip_prefix("expect-error:") {
            expect = Some(Expectation::CompileError(rest.trim().to_string()));
        } else if line == "expect:" {
            expect = Some(Expectation::Rows {
                rows: Vec::new(),
                exact: false,
            });
            in_rows = true;
        } else {
            return Err(err(format!("unrecognised line {line:?}")));
        }
    }
    let sql = sql.ok_or_else(|| format!("{name}: missing sql:"))?;
    let mut expect = expect.ok_or_else(|| format!("{name}: missing expect:/expect-error:"))?;
    if let Expectation::Rows { exact: e, .. } = &mut expect {
        *e = exact;
    }
    Ok(Case {
        name: name.to_string(),
        sql,
        params,
        expect,
    })
}

/// Parses a comma-separated list of SQL literals.
fn parse_values(text: &str) -> Result<Vec<Value>, String> {
    let mut out = Vec::new();
    let mut rest = text.trim();
    if rest.is_empty() {
        return Ok(out);
    }
    loop {
        rest = rest.trim_start();
        if let Some(tail) = rest.strip_prefix('\'') {
            // Quoted text; '' escapes a quote.
            let mut value = String::new();
            let mut iter = tail.char_indices().peekable();
            let mut after = None;
            while let Some((i, c)) = iter.next() {
                if c == '\'' {
                    if matches!(iter.peek(), Some((_, '\''))) {
                        iter.next();
                        value.push('\'');
                    } else {
                        after = Some(i + 1);
                        break;
                    }
                } else {
                    value.push(c);
                }
            }
            let Some(after) = after else {
                return Err(format!("unterminated string in {text:?}"));
            };
            out.push(Value::text(value));
            rest = &tail[after..];
        } else {
            let end = rest.find(',').unwrap_or(rest.len());
            let token = rest[..end].trim();
            let value = if token.eq_ignore_ascii_case("NULL") {
                Value::Null
            } else if token.eq_ignore_ascii_case("TRUE") {
                Value::Bool(true)
            } else if token.eq_ignore_ascii_case("FALSE") {
                Value::Bool(false)
            } else if token.contains('.') {
                Value::Float(
                    token
                        .parse()
                        .map_err(|_| format!("bad float literal {token:?}"))?,
                )
            } else {
                Value::Int(
                    token
                        .parse()
                        .map_err(|_| format!("bad literal {token:?}"))?,
                )
            };
            out.push(value);
            rest = &rest[end..];
        }
        rest = rest.trim_start();
        match rest.strip_prefix(',') {
            Some(tail) => rest = tail,
            None if rest.is_empty() => return Ok(out),
            None => return Err(format!("expected ',' before {rest:?}")),
        }
    }
}

/// Loads every `*.case` file of `dir`, sorted by file name.
pub fn load_corpus(dir: &Path) -> Result<Vec<Case>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.case files in {}", dir.display()));
    }
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("case")
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        cases.push(parse_case(&name, &text)?);
    }
    Ok(cases)
}

/// Runs the corpus: compiles every positive case into one shared plan,
/// executes it, and checks negative cases for their compile errors.
pub fn run_corpus(dir: &Path) -> Result<Report, String> {
    let cases = load_corpus(dir)?;
    let catalog = corpus_catalog();
    let mut report = Report::default();

    // Negative cases: each must fail to compile (fresh compiler — a bad
    // statement must not poison the shared plan of the others).
    let mut positive = Vec::new();
    for case in cases {
        match &case.expect {
            Expectation::CompileError(needle) => {
                let mut compiler = SqlCompiler::new(&catalog);
                match compiler.add_statement(&case.name, &case.sql) {
                    Err(e) => {
                        let message = e.to_string();
                        if message.contains(needle) {
                            report.passed.push(case.name.clone());
                        } else {
                            report.failures.push(format!(
                                "{}: error {message:?} does not contain {needle:?}",
                                case.name
                            ));
                        }
                    }
                    Ok(()) => report
                        .failures
                        .push(format!("{}: compiled but an error was expected", case.name)),
                }
            }
            Expectation::Rows { .. } => positive.push(case),
        }
    }

    // Positive cases: ONE shared plan for the whole corpus.
    let mut compiler = SqlCompiler::new(&catalog);
    for case in &positive {
        compiler
            .add_statement(&case.name, &case.sql)
            .map_err(|e| format!("{}: failed to compile: {e}", case.name))?;
    }
    let (plan, registry) = compiler.finish();
    registry
        .validate(&plan)
        .map_err(|e| format!("registry validation failed: {e}"))?;
    let engine = Engine::start(catalog, plan, registry, EngineConfig::default())
        .map_err(|e| format!("engine start failed: {e}"))?;
    for case in &positive {
        let Expectation::Rows { rows, exact } = &case.expect else {
            unreachable!()
        };
        match engine.execute_sync(&case.name, &case.params) {
            Err(e) => report
                .failures
                .push(format!("{}: execution failed: {e}", case.name)),
            Ok(outcome) => {
                let mut got: Vec<Vec<Value>> =
                    outcome.rows().iter().map(|r| r.values().to_vec()).collect();
                let mut want = rows.clone();
                if !exact {
                    got.sort_by(|a, b| compare_rows(a, b));
                    want.sort_by(|a, b| compare_rows(a, b));
                }
                if got == want {
                    report.passed.push(case.name.clone());
                } else {
                    report.failures.push(format!(
                        "{}: result drift\n  expected: {want:?}\n  got:      {got:?}",
                        case.name
                    ));
                }
            }
        }
    }
    Ok(report)
}

/// Runs the EXPLAIN golden set: compiles every positive case into the one
/// shared corpus plan, renders each statement's static `EXPLAIN` text (the
/// operator subtree with sharing-set annotations), and compares the
/// concatenation against the checked-in `explain.golden` file in the corpus
/// directory. Any drift in plan merging or sharing-set computation fails the
/// run with the first differing line. Set `UPDATE_EXPLAIN_GOLDEN=1` to
/// regenerate the golden file after an intentional planner change.
pub fn run_explain_golden(dir: &Path) -> Result<Report, String> {
    let cases = load_corpus(dir)?;
    let catalog = corpus_catalog();
    let mut compiler = SqlCompiler::new(&catalog);
    let mut names = Vec::new();
    for case in &cases {
        if matches!(case.expect, Expectation::Rows { .. }) {
            compiler
                .add_statement(&case.name, &case.sql)
                .map_err(|e| format!("{}: failed to compile: {e}", case.name))?;
            names.push(case.name.clone());
        }
    }
    let (plan, mut registry) = compiler.finish();
    // As an engine takes it: with each `ORDER BY … LIMIT`'s row demand.
    push_down(&plan, &mut registry);
    let mut rendered = String::new();
    for name in &names {
        let (index, _) = registry.get(name).map_err(|e| e.to_string())?;
        rendered.push_str(&render_explain_text(
            &catalog, &plan, &registry, index, None,
        ));
        rendered.push('\n');
    }

    let golden_path = dir.join("explain.golden");
    let mut report = Report::default();
    if std::env::var("UPDATE_EXPLAIN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&golden_path, &rendered)
            .map_err(|e| format!("cannot write {}: {e}", golden_path.display()))?;
        report.passed.push(format!(
            "regenerated {} ({} statements)",
            golden_path.display(),
            names.len()
        ));
        return Ok(report);
    }
    let want = std::fs::read_to_string(&golden_path).map_err(|e| {
        format!(
            "cannot read {}: {e} (run with UPDATE_EXPLAIN_GOLDEN=1 to generate it)",
            golden_path.display()
        )
    })?;
    if want == rendered {
        report.passed.extend(names);
    } else {
        let mismatch = want
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .map(|(i, (w, g))| format!("line {}:\n  golden:   {w}\n  rendered: {g}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "length drift: golden {} lines, rendered {} lines",
                    want.lines().count(),
                    rendered.lines().count()
                )
            });
        report.failures.push(format!(
            "EXPLAIN text drifted from {} at {mismatch}\n(set UPDATE_EXPLAIN_GOLDEN=1 to accept)",
            golden_path.display()
        ));
    }
    Ok(report)
}

fn compare_rows(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (va, vb) in a.iter().zip(b.iter()) {
        let ord = va.cmp(vb);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_files_parse() {
        let case = parse_case(
            "t",
            "-- comment\nsql: SELECT * FROM USERS WHERE U_ID = ?\nparams: 7\norder: exact\n\
             expect:\n7, 'user7', 'DE', 70\n",
        )
        .unwrap();
        assert_eq!(case.params, vec![Value::Int(7)]);
        match &case.expect {
            Expectation::Rows { rows, exact } => {
                assert!(*exact);
                assert_eq!(
                    rows[0],
                    vec![
                        Value::Int(7),
                        Value::text("user7"),
                        Value::text("DE"),
                        Value::Int(70)
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        let case = parse_case("t", "sql: SELECT\nexpect-error: boom\n").unwrap();
        assert!(matches!(case.expect, Expectation::CompileError(_)));
        assert!(parse_case("t", "sql: SELECT 1\n").is_err());
        assert!(parse_case("t", "nonsense\n").is_err());
    }

    #[test]
    fn literal_lists_parse() {
        assert_eq!(
            parse_values("1, 2.5, 'a,b', NULL, 'O''Brien'").unwrap(),
            vec![
                Value::Int(1),
                Value::Float(2.5),
                Value::text("a,b"),
                Value::Null,
                Value::text("O'Brien"),
            ]
        );
        assert!(parse_values("'unterminated").is_err());
        assert!(parse_values("nope").is_err());
    }
}
