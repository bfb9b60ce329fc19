//! Shared command-line handling for every `flexvec-bench` binary.
//!
//! All seven binaries (`flexvecc`, `fig8`, `table1`, `table2`,
//! `rtm_sweep`, `ablation`, `heuristics`) accept the same core flags, so
//! `--engine tree` and `--spec rtm:128` mean the same thing everywhere:
//!
//! ```text
//! --engine tree|compiled|native   execution engine (default: compiled)
//! --spec ff|rtm[:TILE]            speculation strategy (default: ff; rtm
//!                                 tile defaults to 256)
//! --json                          machine-readable output where supported
//! --help                          usage
//! ```
//!
//! `--engine native` asks for the x86-64 JIT tier; on hosts without the
//! back end it degrades to `compiled` with a note on stderr rather than
//! erroring, so scripts are portable.
//!
//! Values may be attached (`--engine=tree`) or separate (`--engine
//! tree`). Binaries can register extra `--name VALUE` flags; anything
//! that is not a flag is collected as a positional argument (the
//! `flexvecc` subcommand and its paths).

use flexvec::SpecRequest;
use flexvec_vm::Engine;

/// Parsed common flags plus whatever else the binary registered.
#[derive(Clone, Debug)]
pub struct CommonFlags {
    /// `--engine`: which execution engine runs vector code.
    pub engine: Engine,
    /// Whether `--engine` was given explicitly. `flexvecc client` uses
    /// this to decide between forcing the engine on the daemon and
    /// leaving it to the daemon (the wire default, `auto`: native code
    /// where the daemon's host has the JIT).
    pub engine_explicit: bool,
    /// `--spec`: first-faulting (the paper's default) or RTM speculation.
    pub spec: SpecRequest,
    /// Whether `--spec` was given explicitly. `flexvecc client` uses
    /// this to decide between pinning the spec on the daemon (even
    /// `--spec ff`) and leaving the kernel autotunable: the serve wire
    /// protocol treats a *present* `spec` field as an explicit pin.
    pub spec_explicit: bool,
    /// `--json`: emit machine-readable output where the binary supports it.
    pub json: bool,
    /// Non-flag arguments, in order.
    pub positional: Vec<String>,
    extras: Vec<(String, String)>,
}

/// Declaration of a binary-specific `--name VALUE` flag.
#[derive(Clone, Copy, Debug)]
pub struct ExtraFlag {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

fn usage(bin: &str, about: &str, extras: &[ExtraFlag]) -> String {
    let mut out = format!(
        "{about}\n\nUsage: {bin} [OPTIONS] [ARGS...]\n\nOptions:\n  \
         --engine tree|compiled|native  execution engine (default: compiled;\n                           \
         native falls back to compiled off x86-64)\n  \
         --spec ff|rtm[:TILE]     speculation strategy (default: ff; rtm tile 256)\n  \
         --json                   machine-readable output where supported\n  \
         --help                   show this help\n"
    );
    for e in extras {
        out.push_str(&format!("  --{:<22} {}\n", format!("{} N", e.name), e.help));
    }
    out
}

/// Parses `--engine` values.
///
/// # Errors
///
/// Describes the accepted values on anything else.
pub fn parse_engine(value: &str) -> Result<Engine, String> {
    match value {
        "tree" | "tree-walking" => Ok(Engine::TreeWalking),
        "compiled" => Ok(Engine::Compiled),
        "native" => {
            if flexvec_vm::native_supported() {
                Ok(Engine::Native)
            } else {
                eprintln!(
                    "--engine native: this host has no x86-64 JIT back end; \
                     falling back to compiled"
                );
                Ok(Engine::Compiled)
            }
        }
        other => Err(format!(
            "invalid --engine `{other}` (expected `tree`, `compiled`, or `native`)"
        )),
    }
}

impl CommonFlags {
    /// Parses an explicit argument list (no program name).
    ///
    /// # Errors
    ///
    /// Returns the error text to print (unknown flag, missing or invalid
    /// value); `Ok(Err(usage))`-style help is reported as an error string
    /// starting with the usage text when `--help` is present.
    pub fn parse_from<I>(
        bin: &str,
        about: &str,
        extra: &[ExtraFlag],
        args: I,
    ) -> Result<CommonFlags, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut flags = CommonFlags {
            engine: Engine::default(),
            engine_explicit: false,
            spec: SpecRequest::Auto,
            spec_explicit: false,
            json: false,
            positional: Vec::new(),
            extras: Vec::new(),
        };
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(usage(bin, about, extra));
            }
            let Some(flag) = arg.strip_prefix("--") else {
                flags.positional.push(arg);
                continue;
            };
            if flag == "json" {
                flags.json = true;
                continue;
            }
            // `--name=value` or `--name value`.
            let (name, value) = match flag.split_once('=') {
                Some((n, v)) => (n.to_owned(), v.to_owned()),
                None => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{flag} requires a value (see --help)"))?;
                    (flag.to_owned(), v)
                }
            };
            match name.as_str() {
                "engine" => {
                    flags.engine = parse_engine(&value)?;
                    flags.engine_explicit = true;
                }
                "spec" => {
                    flags.spec =
                        flexvec_serve::parse_spec(&value).map_err(|e| format!("--spec: {e}"))?;
                    flags.spec_explicit = true;
                }
                _ if extra.iter().any(|e| e.name == name) => {
                    flags.extras.push((name, value));
                }
                _ => return Err(format!("unknown flag --{name} (see --help)")),
            }
        }
        Ok(flags)
    }

    /// Parses the process arguments; prints usage and exits on `--help`
    /// or any error (exit code 0 and 2 respectively).
    pub fn parse(bin: &str, about: &str, extra: &[ExtraFlag]) -> CommonFlags {
        match Self::parse_from(bin, about, extra, std::env::args().skip(1)) {
            Ok(flags) => flags,
            Err(text) => {
                let help = text.starts_with(about);
                eprintln!("{text}");
                std::process::exit(if help { 0 } else { 2 });
            }
        }
    }

    /// The value of a registered extra flag, parsed as `u64`, or
    /// `default` when absent.
    ///
    /// # Errors
    ///
    /// A value that is not all ASCII digits, as on the wire: `str::parse`
    /// would also take a leading `+`. So is one past `u64::MAX`.
    pub fn try_u64_flag(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some((_, value)) = self.extras.iter().rev().find(|(n, _)| n == name) else {
            return Ok(default);
        };
        value
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| value.parse().ok())
            .flatten()
            .ok_or_else(|| format!("--{name}: expected a non-negative integer, got `{value}`"))
    }

    /// [`CommonFlags::try_u64_flag`], printing the error and exiting
    /// with status 2 on a value it refuses.
    pub fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.try_u64_flag(name, default).unwrap_or_else(|text| {
            eprintln!("{text}");
            std::process::exit(2);
        })
    }

    /// The raw string value of a registered extra flag, or `default`
    /// when absent.
    pub fn str_flag(&self, name: &str, default: &str) -> String {
        self.extras
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map_or_else(|| default.to_owned(), |(_, v)| v.clone())
    }
}

/// Serializes an `f64` as a JSON number, mapping non-finite values
/// (NaN/±inf from degenerate timings, e.g. a scalar wall time of zero)
/// to `null` — bare `NaN` or `inf` tokens are not valid JSON.
///
/// Every bench binary that emits `--json` reports must route floating
/// point fields through this.
pub fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CommonFlags, String> {
        CommonFlags::parse_from(
            "test",
            "about",
            &[ExtraFlag {
                name: "repeat",
                help: "repeat count",
            }],
            args.iter().map(|s| (*s).to_owned()),
        )
    }

    #[test]
    fn defaults() {
        let f = parse(&[]).unwrap();
        assert_eq!(f.engine, Engine::Compiled);
        assert!(!f.engine_explicit, "default engine is not explicit");
        assert_eq!(f.spec, SpecRequest::Auto);
        assert!(!f.json);
        assert!(f.positional.is_empty());
    }

    #[test]
    fn engine_and_spec_both_forms() {
        let f = parse(&["--engine", "tree", "--spec=rtm:128", "--json"]).unwrap();
        assert_eq!(f.engine, Engine::TreeWalking);
        assert!(f.engine_explicit);
        assert_eq!(f.spec, SpecRequest::Rtm { tile: 128 });
        assert!(f.json);

        let f = parse(&["--engine=compiled", "--spec", "rtm"]).unwrap();
        assert_eq!(f.engine, Engine::Compiled);
        assert_eq!(f.spec, SpecRequest::Rtm { tile: 256 });

        assert_eq!(parse(&["--spec", "ff"]).unwrap().spec, SpecRequest::Auto);
    }

    #[test]
    fn native_engine_degrades_gracefully_off_x86() {
        let f = parse(&["--engine", "native"]).unwrap();
        if flexvec_vm::native_supported() {
            assert_eq!(f.engine, Engine::Native);
        } else {
            assert_eq!(f.engine, Engine::Compiled, "fallback, not an error");
        }
    }

    #[test]
    fn positional_and_extras() {
        let f = parse(&["run", "a.fv", "--repeat", "5", "b.fv"]).unwrap();
        assert_eq!(f.positional, vec!["run", "a.fv", "b.fv"]);
        assert_eq!(f.u64_flag("repeat", 1), 5);
        assert_eq!(f.u64_flag("missing", 7), 7);
    }

    #[test]
    fn numeric_flags_refuse_what_is_not_all_digits() {
        for bad in [
            "abc",
            "0x5",
            "+5",
            "-1",
            "",
            "1e3",
            " 5",
            "18446744073709551616",
        ] {
            let f = parse(&[&format!("--repeat={bad}")]).unwrap();
            assert_eq!(
                f.try_u64_flag("repeat", 1),
                Err(format!(
                    "--repeat: expected a non-negative integer, got `{bad}`"
                )),
                "{bad:?}"
            );
        }
        let f = parse(&["--repeat", "007"]).unwrap();
        assert_eq!(f.try_u64_flag("repeat", 1), Ok(7));
        let f = parse(&["--repeat", "18446744073709551615"]).unwrap();
        assert_eq!(f.try_u64_flag("repeat", 1), Ok(u64::MAX));
        // A later value wins, and an absent flag is its default.
        let f = parse(&["--repeat", "x", "--repeat", "2"]).unwrap();
        assert_eq!(f.try_u64_flag("repeat", 1), Ok(2));
        assert_eq!(f.try_u64_flag("missing", 9), Ok(9));
    }

    #[test]
    fn str_flag_returns_raw_value_or_default() {
        let f = parse(&["--repeat", "out/dir"]).unwrap();
        assert_eq!(f.str_flag("repeat", "x"), "out/dir");
        assert_eq!(f.str_flag("missing", "x"), "x");
    }

    #[test]
    fn json_f64_maps_degenerate_values_to_null() {
        assert_eq!(json_f64(1.5), "1.500000");
        assert_eq!(json_f64(0.0), "0.000000");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["--engine", "quantum"])
            .unwrap_err()
            .contains("--engine"));
        assert!(parse(&["--spec", "maybe"]).unwrap_err().contains("--spec"));
        assert!(parse(&["--spec", "rtm:0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--wat", "1"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--engine"])
            .unwrap_err()
            .contains("requires a value"));
        let help = parse(&["--help"]).unwrap_err();
        assert!(
            help.contains("Usage:") && help.contains("--repeat"),
            "{help}"
        );
    }
}
