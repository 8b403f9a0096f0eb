//! Command-line interface for KAMEL.
//!
//! Drives the full system from trajectory CSV files:
//!
//! ```text
//! kamel generate --city porto --scale small --train trips.csv --test truth.csv
//! kamel tune     --input trips.csv
//! kamel train    --input trips.csv --model model.json
//! kamel impute   --model model.json --input sparse.csv --output dense.csv
//! kamel pack     --model model.json --out city.kstore
//! kamel serve    --model model.json --addr 127.0.0.1:8080
//! kamel serve    --model model.json --learn --learn-dir capture/
//! kamel serve    --store city.kstore --model-memory-budget 64m
//! kamel route    --shard 127.0.0.1:8081,127.0.0.1:8082 --addr 127.0.0.1:8080
//! kamel stats    --model model.json
//! kamel evaluate --model model.json --truth truth.csv --sparse-m 1000 --delta-m 50
//! ```
//!
//! The CSV format is one fix per row: `traj_id,lat,lng,t` (header optional).
//! The library surface ([`run`]) takes the argument vector and an output
//! writer so every command is integration-tested without spawning
//! processes.

#![warn(missing_docs)]

pub mod commands;
pub mod csvio;
pub mod progress;

use std::io::Write;

/// Runs the CLI with the given arguments (excluding the program name),
/// writing human output to `out`. Returns the process exit code.
pub fn run(args: &[String], out: &mut dyn Write) -> i32 {
    let usage = "usage: kamel <generate|train|tune|impute|pack|serve|route|chaos|c10k|stats|evaluate|export> [options]\n\
                 run `kamel <command> --help` for per-command options";
    let Some(command) = args.first() else {
        let _ = writeln!(out, "{usage}");
        return 2;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "generate" => commands::generate(rest, out),
        "train" => commands::train(rest, out),
        "impute" => commands::impute(rest, out),
        "pack" => commands::pack(rest, out),
        "serve" => commands::serve(rest, out),
        "route" => commands::route(rest, out),
        "chaos" => commands::chaos(rest, out),
        "c10k" => commands::c10k(rest, out),
        "stats" => commands::stats(rest, out),
        "tune" => commands::tune(rest, out),
        "export" => commands::export(rest, out),
        "evaluate" => commands::evaluate(rest, out),
        "--help" | "-h" | "help" => {
            let _ = writeln!(out, "{usage}");
            return 0;
        }
        other => Err(format!("unknown command `{other}`\n{usage}")),
    };
    match result {
        Ok(()) => 0,
        Err(msg) => {
            let _ = writeln!(out, "error: {msg}");
            1
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean `--key` switches.
///
/// Each command declares the value flags and switches it reads; any other
/// `--key` is an error, so a typo (`--thread 1`) never silently runs with
/// the defaults.
pub(crate) struct Flags<'a> {
    pairs: Vec<(&'a str, Option<&'a str>)>,
    /// Every flag the command declared, for the read-side check in `get`.
    declared: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parses `args` for `kamel <command>`, which reads exactly the flags in
    /// `values` (each followed by a value) and `switches` (bare); `Ok(None)`
    /// means `--help` was asked for and has been printed to `out`.
    pub(crate) fn parse(
        command: &str,
        help: &str,
        values: &[&'a str],
        switches: &[&'a str],
        args: &'a [String],
        out: &mut dyn Write,
    ) -> Result<Option<Self>, String> {
        let declared = [values, switches].concat();
        debug_assert!(
            declared.iter().all(|flag| help.contains(flag)),
            "kamel {command}: a declared flag is missing from its --help"
        );
        if args.iter().any(|a| a == "--help") {
            let _ = writeln!(out, "{help}");
            return Ok(None);
        }
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].as_str();
            if !key.starts_with("--") {
                return Err(format!("unexpected argument `{key}`"));
            }
            if switches.contains(&key) {
                pairs.push((key, None));
                i += 1;
            } else if values.contains(&key) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag `{key}` needs a value"))?;
                pairs.push((key, Some(value.as_str())));
                i += 2;
            } else {
                return Err(format!("unknown flag `{key}` for `kamel {command}`"));
            }
        }
        Ok(Some(Self { pairs, declared }))
    }

    pub(crate) fn get(&self, key: &str) -> Option<&'a str> {
        self.check_declared(key);
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v)
    }

    pub(crate) fn has(&self, key: &str) -> bool {
        self.check_declared(key);
        self.pairs.iter().any(|(k, _)| *k == key)
    }

    /// A command that reads a flag it did not declare could never be given
    /// it; debug builds (the test suites) catch that at the read.
    fn check_declared(&self, key: &str) {
        debug_assert!(self.declared.contains(&key), "flag `{key}` is read but not declared");
    }

    pub(crate) fn required(&self, key: &str) -> Result<&'a str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag `{key}`"))
    }

    pub(crate) fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `{key}` expects a number, got `{v}`")),
        }
    }

    /// A count: base-10 digits only, so `1.5`, `-3`, `nan` and `1e9` are
    /// errors where a float cast would truncate or clamp them.
    pub(crate) fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        let Some(v) = self.get(key) else {
            return Ok(default);
        };
        // `u64::from_str` rejects all of those but would take a leading `+`.
        v.parse()
            .ok()
            .filter(|_| !v.starts_with('+'))
            .ok_or_else(|| format!("flag `{key}` expects an integer, got `{v}`"))
    }

    /// [`Flags::get_u64`] for sizes and counts held as `usize`.
    pub(crate) fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        let n = self.get_u64(key, default as u64)?;
        usize::try_from(n).map_err(|_| format!("flag `{key}` expects an integer, got `{n}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn no_command_prints_usage() {
        let (code, out) = run_capture(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("usage"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_capture(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn help_succeeds() {
        let (code, out) = run_capture(&["--help"]);
        assert_eq!(code, 0);
        assert!(out.contains("generate"));
    }

    const COMMANDS: [&str; 12] = [
        "generate", "train", "tune", "impute", "pack", "serve", "route", "chaos", "c10k", "stats",
        "evaluate", "export",
    ];

    /// The usage line names exactly the commands that exist; the standalone
    /// trainer went with the loop it ran.
    #[test]
    fn usage_lists_the_commands() {
        let (_, out) = run_capture(&["--help"]);
        let listed = out.split(['<', '>']).nth(1).expect("usage names the commands");
        assert_eq!(listed.split('|').collect::<Vec<_>>(), COMMANDS);
        let (code, out) = run_capture(&["learn", "--help"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unknown command `learn`"), "{out}");
    }

    /// A typo never silently runs with defaults: every command rejects a
    /// flag it does not declare, before doing anything else.
    #[test]
    fn every_command_rejects_unknown_flags() {
        for command in COMMANDS {
            let (code, out) = run_capture(&[command, "--no-such-flag", "1"]);
            assert_eq!(code, 1, "{command}: {out}");
            let expected = format!("unknown flag `--no-such-flag` for `kamel {command}`");
            assert!(out.contains(&expected), "{command}: {out}");
        }
        // A prefix of a real flag is still a typo.
        let (_, out) = run_capture(&["train", "--thread", "1"]);
        assert!(out.contains("unknown flag `--thread` for `kamel train`"), "{out}");
    }

    /// Counts are integers: every integer flag of every command rejects a
    /// fraction instead of truncating it. Each row gives the arguments that
    /// carry the command as far as reading the flags; the unusable
    /// addresses make a row that wrongly passes fail instead of serving.
    #[test]
    fn every_integer_flag_rejects_a_non_integer() {
        let dir = std::env::temp_dir().join(format!("kamel_cli_intflags_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (csv, model) = (path("trips.csv"), path("model.json"));
        let mut rows = String::from("traj_id,lat,lng,t\n");
        for trip in 0..30 {
            for i in 0..25 {
                rows += &format!("{trip},41.15,{},{}\n", -8.61 + f64::from(i) * 0.001, i * 10);
            }
        }
        std::fs::write(&csv, rows).unwrap();
        let (code, out) =
            run_capture(&["train", "--input", &csv, "--model", &model, "--threshold-k", "50"]);
        assert_eq!(code, 0, "{out}");

        let config = ["--beam-size", "--pyramid-height", "--pyramid-maintained", "--threshold-k", "--threads"];
        let check = |command: &str, reach: &[&str], flags: &[&str]| {
            for flag in flags {
                for bad in ["1.5", "-3", "nan", "1e9", "+5", ""] {
                    let args = [&[command], reach, &[flag, bad]].concat();
                    let (code, out) = run_capture(&args);
                    assert_eq!(code, 1, "{command} {flag} {bad}: {out}");
                    let expected = format!("flag `{flag}` expects an integer, got `{bad}`");
                    assert!(out.contains(&expected), "{command} {flag} {bad}: {out}");
                }
            }
        };
        let out_model = path("out.json");
        check("train", &["--input", &csv, "--model", &out_model], &config);
        check(
            "train",
            &["--input", &csv, "--model", &out_model],
            &["--checkpoint-every", "--stop-after", "--throttle-ms"],
        );
        check("tune", &["--input", &csv], &config);
        check("impute", &[], &["--threads"]);
        check("evaluate", &["--model", &model, "--truth", &csv], &["--limit"]);
        let serve = ["--model", &model, "--addr", "nowhere"];
        check(
            "serve",
            &serve,
            &[
                "--threads", "--batch-max", "--batch-wait-us", "--queue-cap", "--cache-entries",
                "--deadline-ms", "--max-connections", "--idle-timeout-ms",
            ],
        );
        check(
            "serve",
            &[&serve[..], &["--learn"]].concat(),
            &["--learn-interval-secs", "--learn-batch-min"],
        );
        check("serve", &[&serve[..], &["--shard-of", "2"]].concat(), &["--shard-id"]);
        check("serve", &[&serve[..], &["--shard-id", "0"]].concat(), &["--shard-of"]);
        check(
            "route",
            &["--shard", "127.0.0.1:1", "--addr", "nowhere"],
            &[
                "--handlers", "--timeout-ms", "--eject-window", "--probe-interval-ms",
                "--default-deadline-ms", "--max-connections", "--idle-timeout-ms",
            ],
        );
        // The gate's flags refuse what they cannot mean, naming the flag,
        // before the unusable address is bound; window 1 is in range. The
        // two machines' flags this replaced are unknown now.
        let route = |extra: &[&str]| {
            let reach = ["route", "--shard", "127.0.0.1:1", "--addr", "nowhere"];
            run_capture(&[&reach[..], extra].concat())
        };
        for (flag, bad) in [
            ("--eject-window", "0"),
            ("--eject-threshold", "0"),
            ("--eject-threshold", "7"),
            ("--eject-threshold", "-0.5"),
            ("--eject-threshold", "nan"),
            ("--probe-interval-ms", "0"),
        ] {
            let (code, out) = route(&[flag, bad]);
            assert_eq!(code, 1, "{flag} {bad}: {out}");
            assert!(out.contains(&format!("flag `{flag}` expects")), "{flag} {bad}: {out}");
            assert!(!out.contains("bind"), "{flag} {bad} reached the socket: {out}");
        }
        let (_, out) = route(&["--eject-window", "1", "--eject-threshold", "1"]);
        assert!(out.contains("bind nowhere"), "in range, so it got as far as binding: {out}");
        for gone in ["--eject-after", "--breaker-open-ms", "--breaker-window", "--breaker-threshold"] {
            let (code, out) = route(&[gone, "3"]);
            assert_eq!(code, 1, "{gone}: {out}");
            assert!(out.contains(&format!("unknown flag `{gone}` for `kamel route`")), "{out}");
        }
        check("c10k", &["--addr", "127.0.0.1:1"], &["--connections", "--timeout-ms", "--gauge-wait-ms"]);
        let chaos = ["--upstream", "127.0.0.1:1", "--listen", "nowhere"];
        check("chaos", &chaos, &["--seed"]);
        check(
            "chaos",
            &[&chaos[..], &["--seed", "7"]].concat(),
            &["--stall-ms", "--trickle-ms", "--torn-after"],
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every flag a command's `--help` synopsis names is accepted: given
    /// alone it fails on something else (a missing or malformed flag), never
    /// as unknown.
    #[test]
    fn every_flag_in_help_is_accepted() {
        for command in COMMANDS {
            let (code, help) = run_capture(&[command, "--help"]);
            assert_eq!(code, 0, "{command}: {help}");
            let synopsis = help.split("\n\n").next().unwrap();
            let named: Vec<&str> = synopsis
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|token| token.starts_with("--"))
                .collect();
            assert!(!named.is_empty(), "{command} names no flag: {help}");
            for flag in named {
                let (code, out) = run_capture(&[command, flag, "x"]);
                assert_eq!(code, 1, "{command} {flag}: {out}");
                assert!(!out.contains("unknown flag"), "{command} {flag}: {out}");
            }
        }
    }

    fn parse(args: &[String]) -> Result<Option<Flags<'_>>, String> {
        Flags::parse(
            "test",
            "kamel test --a N [--flag] --b X [--missing X] [--absent N]",
            &["--a", "--b", "--missing", "--absent"],
            &["--flag"],
            args,
            &mut Vec::new(),
        )
    }

    #[test]
    fn flags_parsing() {
        let args: Vec<String> = ["--a", "1", "--flag", "--b", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse(&args).unwrap().unwrap();
        assert_eq!(f.get("--a"), Some("1"));
        assert!(f.has("--flag"));
        assert_eq!(f.required("--b").unwrap(), "x");
        assert!(f.required("--missing").is_err());
        assert_eq!(f.get_f64("--a", 0.0).unwrap(), 1.0);
        assert_eq!(f.get_f64("--absent", 7.5).unwrap(), 7.5);
        assert!(f.get_f64("--b", 0.0).is_err());
        assert_eq!(f.get_usize("--a", 0).unwrap(), 1);
        assert_eq!(f.get_u64("--absent", 7).unwrap(), 7);
        assert!(f.get_u64("--b", 0).is_err());
    }

    #[test]
    fn flags_reject_positional() {
        let args: Vec<String> = vec!["oops".to_string()];
        assert!(parse(&args).is_err());
    }
}
