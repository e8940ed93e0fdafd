//! One vocabulary for the compile options a user can set.
//!
//! Every front door — `qsyn compile`, `qsyn serve`'s flags, serve request
//! rows and the sweep binaries — parses its input into one
//! [`CompileOptions`] value, and [`CompileOptions::compiler`] is the one
//! place that turns that value into a [`Compiler`]. Each option has one
//! rule:
//!
//! * value names live in one table per option: [`CostKind`],
//!   [`PlacementStrategy`], [`RouteStrategyKind`] and [`CacheMode`] each
//!   carry `ALL` / `parse` / `name` / `choices`;
//! * each numeric range is checked by one setter:
//!   [`CompileOptions::set_deadline`] (> 0),
//!   [`CompileOptions::set_node_budget`] (≥ 1) and
//!   [`CompileOptions::set_max_swaps`] (any count; 0 forbids SWAPs).
//!
//! Doors differ only in how they spell a value (`--deadline` in seconds,
//! a request's `deadline_ms` in milliseconds) and how they report an
//! error. The command-line doors share [`Args`], a strict flag parser,
//! and [`CompileOptions::apply_args`], which reads every option flag a
//! door declared; [`load_circuit`] is the one circuit-file loader.

use crate::budget::{CompileBudget, VerifyMode};
use crate::cache::CacheMode;
use crate::place::PlacementStrategy;
use crate::strategy::RouteStrategyKind;
use crate::{Compiler, Verification};
use qsyn_arch::{CostModel, Device, FidelityCost, TransmonCost, VolumeCost};
use qsyn_circuit::Circuit;
use std::path::Path;
use std::str::FromStr;
use std::time::Duration;

/// Which cost model a compile uses. Cost models are not `Clone`, so
/// options store the selector and build a fresh model per compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostKind {
    /// The paper's Eqn. 2 transmon cost (the default).
    #[default]
    Eqn2,
    /// Gate-count/volume cost.
    Volume,
    /// Calibration-driven fidelity cost.
    Fidelity,
}

impl CostKind {
    /// Every selectable cost model, in `--cost` listing order.
    pub const ALL: [CostKind; 3] = [CostKind::Eqn2, CostKind::Volume, CostKind::Fidelity];

    /// Parses the `--cost` value.
    pub fn parse(s: &str) -> Option<CostKind> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }

    /// Stable lowercase identifier (the `--cost` value).
    pub fn name(self) -> &'static str {
        match self {
            CostKind::Eqn2 => "eqn2",
            CostKind::Volume => "volume",
            CostKind::Fidelity => "fidelity",
        }
    }

    /// The accepted values as prose (`eqn2, volume or fidelity`), for
    /// "unknown cost model" errors.
    pub fn choices() -> String {
        crate::one_of(&Self::ALL.map(Self::name))
    }

    /// Builds the selected cost model.
    pub fn build(self) -> Box<dyn CostModel> {
        match self {
            CostKind::Eqn2 => Box::new(TransmonCost::default()),
            CostKind::Volume => Box::new(VolumeCost),
            CostKind::Fidelity => Box::new(FidelityCost::default()),
        }
    }
}

/// Every compile option a user can set, as plain data.
///
/// The default is the paper's flow: Eqn. 2 cost, identity placement, CTR
/// routing, optimization and verification on, the transparent cache
/// layers, and an unlimited budget.
///
/// # Examples
///
/// ```
/// use qsyn_arch::devices;
/// use qsyn_circuit::Circuit;
/// use qsyn_core::{CompileOptions, CostKind};
/// use qsyn_gate::Gate;
///
/// let mut options = CompileOptions::default();
/// options.cost = CostKind::Volume;
/// options.set_node_budget(1 << 20).expect("a positive node budget");
/// assert!(options.set_node_budget(0).is_err());
///
/// let mut spec = Circuit::new(3);
/// spec.push(Gate::toffoli(0, 1, 2));
/// let result = options.compiler(devices::ibmqx4()).compile(&spec)?;
/// assert_eq!(result.verified, Some(true));
/// # Ok::<(), qsyn_core::CompileError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Cost model driving optimization (and `auto` routing).
    pub cost: CostKind,
    /// Initial placement of logical lines.
    pub placement: PlacementStrategy,
    /// Coupling-map router.
    pub strategy: RouteStrategyKind,
    /// Caching layers.
    pub cache: CacheMode,
    /// Whether local optimization runs.
    pub optimize: bool,
    /// Whether QMDD verification runs.
    pub verify: bool,
    /// Deadline, node budget, SWAP cap and verify mode. Set the numeric
    /// limits through the validating setters.
    pub budget: CompileBudget,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            cost: CostKind::default(),
            placement: PlacementStrategy::default(),
            strategy: RouteStrategyKind::default(),
            cache: CacheMode::default(),
            optimize: true,
            verify: true,
            budget: CompileBudget::default(),
        }
    }
}

impl CompileOptions {
    /// The one builder every front door runs: a [`Compiler`] for `device`
    /// with these options. Door-only settings (trace sink, disk tier, job
    /// id, fault injection, stream verify jobs) are added by the caller.
    pub fn compiler(&self, device: Device) -> Compiler {
        Compiler::new(device)
            .with_cost_model(self.cost.build())
            .with_placement(self.placement)
            .with_route_strategy(self.strategy)
            .with_optimization(self.optimize)
            .with_verification(if self.verify {
                Verification::Auto
            } else {
                Verification::None
            })
            .with_budget(self.budget)
            .with_cache(self.cache)
    }

    /// Sets the wall-clock deadline.
    ///
    /// # Errors
    ///
    /// A zero deadline can only fail, so it is rejected with the rule.
    pub fn set_deadline(&mut self, deadline: Duration) -> Result<(), &'static str> {
        if deadline.is_zero() {
            return Err("must be positive");
        }
        self.budget.deadline = Some(deadline);
        Ok(())
    }

    /// Sets the QMDD node budget.
    ///
    /// # Errors
    ///
    /// A budget of zero nodes cannot hold a terminal, so it is rejected
    /// with the rule.
    pub fn set_node_budget(&mut self, nodes: usize) -> Result<(), &'static str> {
        if nodes == 0 {
            return Err("must be positive");
        }
        self.budget.qmdd_node_budget = Some(nodes);
        Ok(())
    }

    /// Sets the routing SWAP cap. Every count is valid: 0 means the
    /// router may insert no SWAPs at all.
    pub fn set_max_swaps(&mut self, swaps: usize) {
        self.budget.max_route_swaps = Some(swaps);
    }

    /// Selects strict (a budget blow mid-verify fails the compile) or
    /// degraded verification.
    pub fn set_strict_verify(&mut self, strict: bool) {
        self.budget.verify_mode = if strict {
            VerifyMode::Strict
        } else {
            VerifyMode::Degrade
        };
    }

    /// Applies every option flag present in `args`: `--no-opt`,
    /// `--no-verify`, `--strict-verify`, `--cost`, `--placement`,
    /// `--route-strategy`, `--cache`, `--deadline SECONDS`,
    /// `--node-budget NODES` and `--max-swaps N`. A door declares the
    /// subset it accepts to [`Args::parse`], so an undeclared option
    /// never reaches here.
    ///
    /// # Errors
    ///
    /// A message naming the flag, its value and what was wanted.
    pub fn apply_args(&mut self, args: &Args) -> Result<(), String> {
        if args.has("no-opt") {
            self.optimize = false;
        }
        if args.has("no-verify") {
            self.verify = false;
        }
        if args.has("strict-verify") {
            self.set_strict_verify(true);
        }
        if let Some(v) = args.value("cost") {
            self.cost = choice(v, "cost", CostKind::parse, CostKind::choices)?;
        }
        if let Some(v) = args.value("placement") {
            self.placement = choice(
                v,
                "placement",
                PlacementStrategy::parse,
                PlacementStrategy::choices,
            )?;
        }
        if let Some(v) = args.value("route-strategy") {
            self.strategy = choice(
                v,
                "route-strategy",
                RouteStrategyKind::parse,
                RouteStrategyKind::choices,
            )?;
        }
        if let Some(v) = args.value("cache") {
            self.cache = choice(v, "cache", CacheMode::parse, CacheMode::choices)?;
        }
        if let Some(v) = args.value("deadline") {
            let deadline = v
                .parse::<f64>()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| bad_flag("deadline", v, "want seconds, e.g. 2.5"))?;
            self.set_deadline(deadline)
                .map_err(|rule| bad_flag("deadline", v, rule))?;
        }
        if let Some(v) = args.value("node-budget") {
            let nodes = v
                .parse()
                .map_err(|_| bad_flag("node-budget", v, "want a node count"))?;
            self.set_node_budget(nodes)
                .map_err(|rule| bad_flag("node-budget", v, rule))?;
        }
        if let Some(swaps) = args.parsed("max-swaps", "a SWAP count")? {
            self.set_max_swaps(swaps);
        }
        Ok(())
    }
}

/// Parses a named choice, or names the flag and the accepted values.
fn choice<T>(
    value: &str,
    flag: &str,
    parse: fn(&str) -> Option<T>,
    choices: fn() -> String,
) -> Result<T, String> {
    parse(value).ok_or_else(|| bad_flag(flag, value, &format!("want {}", choices())))
}

fn bad_flag(flag: &str, value: &str, why: &str) -> String {
    format!("bad --{flag} `{value}` ({why})")
}

/// A command line split by a strict flag parser: positional arguments
/// plus the flags, each of which the caller declared.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses `--flag` (boolean), `--flag value` and `--flag=value`
    /// forms. Every flag must be declared in `bool_flags` or
    /// `value_flags`; a flag in both takes a value only in the `=` form
    /// (`--trace` vs `--trace=FILE`).
    ///
    /// # Errors
    ///
    /// `unknown flag --NAME` for an undeclared flag, `flag --NAME
    /// requires a value` for a value flag at the end of the line, and
    /// `flag --NAME takes no value` for `--NAME=VALUE` on a flag declared
    /// only as boolean.
    pub fn parse(
        args: &[String],
        bool_flags: &[&str],
        value_flags: &[&str],
    ) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            let Some(name) = a.strip_prefix("--") else {
                parsed.positional.push(a.clone());
                continue;
            };
            let (name, value) = if let Some((name, value)) = name.split_once('=') {
                if !value_flags.contains(&name) {
                    return Err(if bool_flags.contains(&name) {
                        format!("flag --{name} takes no value")
                    } else {
                        format!("unknown flag --{name}")
                    });
                }
                (name, value.to_string())
            } else if bool_flags.contains(&name) {
                (name, String::new())
            } else if value_flags.contains(&name) {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("flag --{name} requires a value"))?;
                (name, value.clone())
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            parsed.flags.push((name.to_string(), value));
        }
        Ok(parsed)
    }

    /// The value of the first occurrence of `name` (`""` for a boolean
    /// flag), or `None` when absent.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value of `name` parsed as `T`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// `bad --NAME `VALUE` (want WANT)` when the value does not parse.
    pub fn parsed<T: FromStr>(&self, name: &str, want: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| bad_flag(name, v, &format!("want {want}")))
            })
            .transpose()
    }

    /// A count flag that must be at least `min`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// `bad --NAME `VALUE` (want WANT)` when the value is not such a
    /// count.
    pub fn count(&self, name: &str, min: usize, want: &str) -> Result<Option<usize>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        match v.parse::<usize>() {
            Ok(n) if n >= min => Ok(Some(n)),
            _ => Err(bad_flag(name, v, &format!("want {want}"))),
        }
    }
}

/// Loads a circuit file, choosing the parser by extension: `.qc`,
/// `.real`, `.pla` (the ESOP front end), and OpenQASM for anything else.
///
/// # Errors
///
/// A message prefixed with the path.
pub fn load_circuit(path: impl AsRef<Path>) -> Result<Circuit, String> {
    let path = path.as_ref();
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = match path.extension().and_then(|e| e.to_str()) {
        Some("qc") => Circuit::from_qc(&src).map_err(|e| e.to_string()),
        Some("real") => Circuit::from_real(&src).map_err(|e| e.to_string()),
        Some("pla") => qsyn_esop::parse_pla(&src).map(|pla| pla.synthesize()),
        _ => Circuit::from_qasm(&src).map_err(|e| e.to_string()),
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn choice_names_round_trip() {
        for c in CostKind::ALL {
            assert_eq!(CostKind::parse(c.name()), Some(c));
        }
        for p in PlacementStrategy::ALL {
            assert_eq!(PlacementStrategy::parse(p.name()), Some(p));
        }
        assert_eq!(CostKind::choices(), "eqn2, volume or fidelity");
        assert_eq!(PlacementStrategy::choices(), "identity, greedy or annealed");
    }

    #[test]
    fn parser_accepts_both_value_forms_and_names_unknown_flags() {
        let a = Args::parse(
            &args(&[
                "in.qasm",
                "--deadline",
                "2.5",
                "--node-budget=4096",
                "--no-opt",
            ]),
            &["no-opt"],
            &["deadline", "node-budget"],
        )
        .unwrap();
        assert_eq!(a.positional, ["in.qasm"]);
        assert_eq!(a.value("deadline"), Some("2.5"));
        assert_eq!(a.value("node-budget"), Some("4096"));
        assert!(a.has("no-opt") && !a.has("missing"));
        let err = Args::parse(&args(&["--no-verfy"]), &["no-verify"], &[]).unwrap_err();
        assert_eq!(err, "unknown flag --no-verfy");
        let err = Args::parse(&args(&["--jobs"]), &[], &["jobs"]).unwrap_err();
        assert_eq!(err, "flag --jobs requires a value");
    }

    #[test]
    fn boolean_flag_refuses_a_value() {
        let err = Args::parse(&args(&["--no-verify=false"]), &["no-verify"], &[]).unwrap_err();
        assert_eq!(err, "flag --no-verify takes no value");
        let err = Args::parse(&args(&["--no-verify="]), &["no-verify"], &[]).unwrap_err();
        assert_eq!(err, "flag --no-verify takes no value");
        // A flag declared both ways keeps its bare and `=` forms.
        let a = Args::parse(
            &args(&["--trace", "--trace=t.jsonl"]),
            &["trace"],
            &["trace"],
        )
        .unwrap();
        assert_eq!(a.value("trace"), Some(""));
        assert_eq!(a.flags[1], ("trace".to_string(), "t.jsonl".to_string()));
    }

    #[test]
    fn each_numeric_range_has_one_rule() {
        let mut o = CompileOptions::default();
        assert!(o.set_deadline(Duration::ZERO).is_err());
        assert!(o.set_node_budget(0).is_err());
        o.set_max_swaps(0);
        assert_eq!(o.budget.max_route_swaps, Some(0));
        assert_eq!(o.budget.deadline, None);
        assert_eq!(o.budget.qmdd_node_budget, None);
    }

    #[test]
    fn apply_args_reads_every_option_flag() {
        let a = Args::parse(
            &args(&[
                "--no-opt",
                "--no-verify",
                "--strict-verify",
                "--cost",
                "volume",
                "--placement",
                "annealed",
                "--route-strategy",
                "auto",
                "--cache",
                "mem",
                "--deadline",
                "1.5",
                "--node-budget",
                "64",
                "--max-swaps",
                "0",
            ]),
            &["no-opt", "no-verify", "strict-verify"],
            &[
                "cost",
                "placement",
                "route-strategy",
                "cache",
                "deadline",
                "node-budget",
                "max-swaps",
            ],
        )
        .unwrap();
        let mut o = CompileOptions::default();
        o.apply_args(&a).unwrap();
        assert_eq!(
            o,
            CompileOptions {
                cost: CostKind::Volume,
                placement: PlacementStrategy::Annealed,
                strategy: RouteStrategyKind::Auto,
                cache: CacheMode::Mem,
                optimize: false,
                verify: false,
                budget: CompileBudget {
                    deadline: Some(Duration::from_millis(1500)),
                    qmdd_node_budget: Some(64),
                    max_optimize_rounds: None,
                    max_route_swaps: Some(0),
                    verify_mode: VerifyMode::Strict,
                },
            }
        );
    }

    #[test]
    fn apply_args_errors_name_the_flag_and_the_rule() {
        for (flag, value, want) in [
            ("deadline", "0", "must be positive"),
            ("deadline", "-1", "want seconds"),
            ("node-budget", "0", "must be positive"),
            ("node-budget", "many", "want a node count"),
            ("max-swaps", "-1", "want a SWAP count"),
            ("cost", "cheapest", "want eqn2, volume or fidelity"),
            ("placement", "random", "want identity, greedy or annealed"),
        ] {
            let a = Args::parse(&args(&[&format!("--{flag}"), value]), &[], &[flag]).unwrap();
            let err = CompileOptions::default().apply_args(&a).unwrap_err();
            assert!(
                err.starts_with(&format!("bad --{flag} `{value}`")) && err.contains(want),
                "{err}"
            );
        }
    }
}
