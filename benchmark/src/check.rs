//! Output checks. Each check is one counted operation: `attempted` and
//! `failed` on the result line, `error_rate` in the printed tables.

use crate::workload::Kind;
use obs::Json;
use std::path::PathBuf;

/// The seed the committed answers in `golden/` were generated with.
pub const GOLDEN_SEED: u64 = 7;

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one operation; `detail` is rendered only if it failed.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Where the first difference between two renderings is, for a failure
/// message that does not dump two whole reports.
pub fn first_difference(a: &str, b: &str) -> String {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let at = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let clip = |s: &[u8]| {
        String::from_utf8_lossy(&s[at.saturating_sub(40)..(at + 40).min(s.len())]).into_owned()
    };
    format!(
        "differ at byte {at}: ...{}... vs ...{}...",
        clip(a),
        clip(b)
    )
}

/// The benchmark's own directory: the checkout builds the binary where
/// it runs it, so the manifest directory is where `golden/` and `out/`
/// live.
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path(kind: Kind) -> PathBuf {
    home().join("golden").join(format!("{}.json", kind.name()))
}

fn answers_json(kind: Kind, answers: &[(String, u64)]) -> Json {
    let (size_name, size) = kind.size();
    Json::obj(vec![
        ("workload", Json::Str(kind.name().into())),
        ("seed", Json::UInt(GOLDEN_SEED)),
        ("size_constant", Json::Str(size_name.into())),
        ("size", Json::Num(size)),
        (
            "answers",
            Json::Arr(
                answers
                    .iter()
                    .map(|(name, digest)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("digest", Json::UInt(*digest)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Overwrite the workload's golden answers (`run.sh --bless`). Goldens
/// hold answers only, never a simulated quantity.
pub fn bless(kind: Kind, answers: &[(String, u64)]) -> std::io::Result<PathBuf> {
    let path = golden_path(kind);
    std::fs::create_dir_all(path.parent().expect("golden/ has a parent"))?;
    std::fs::write(&path, answers_json(kind, answers).to_pretty() + "\n")?;
    Ok(path)
}

/// Hold a run's answers against the committed golden file. Goldens exist
/// for [`GOLDEN_SEED`] only; for any other seed nothing is attempted
/// (the DRAM-only baseline's answers are the independent check there).
pub fn check_golden(checks: &mut Checks, kind: Kind, seed: u64, answers: &[(String, u64)]) {
    if seed != GOLDEN_SEED {
        return;
    }
    let path = golden_path(kind);
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (regenerate with run.sh --bless)", path.display()))
        .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())));
    match expected {
        Ok(golden) => {
            let ours = answers_json(kind, answers);
            checks.check("answers equal golden", golden == ours, || {
                first_difference(&golden.to_compact(), &ours.to_compact())
            })
        }
        Err(e) => checks.check("answers equal golden", false, || e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check("a", true, || unreachable!("detail of a passing check"));
        c.check("b", false, || "boom".into());
        assert_eq!((c.attempted, c.failed()), (2, 1));
        assert_eq!(c.failures, ["b: boom"]);
    }

    #[test]
    fn first_difference_points_at_the_byte() {
        let d = first_difference("{\"a\":1,\"b\":2}", "{\"a\":1,\"b\":3}");
        assert!(d.starts_with("differ at byte 11"), "{d}");
        assert!(first_difference("abc", "abcd").starts_with("differ at byte 3"));
        // A cut through a multi-byte character must not panic.
        let _ = first_difference(&"é".repeat(50), &"é".repeat(49));
    }

    #[test]
    fn every_workload_has_a_committed_golden_for_the_golden_seed() {
        for kind in Kind::ALL {
            let text = std::fs::read_to_string(golden_path(kind))
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let j = Json::parse(&text).expect("golden parses");
            assert_eq!(j.get("seed").and_then(Json::as_u64), Some(GOLDEN_SEED));
            assert_eq!(j.get("size").and_then(Json::as_f64), Some(kind.size().1));
            let answers = j.get("answers").and_then(Json::as_array).expect("answers");
            assert!(!answers.is_empty(), "{}", kind.name());
            // Answers only: no simulated quantity may sit in a golden.
            assert!(!text.contains("sim_") && !text.contains("elapsed"));
        }
    }
}
