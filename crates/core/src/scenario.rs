//! One simulation scenario as one value: what to run, under which
//! policy, on which machine. [`Scenario`] parses from and prints to the
//! `key=value` grammar of `lams-serve`'s `run` and `replay` lines
//! (`docs/service-protocol.md`); `trace_tool` reads its `--key value`
//! flags into the same value. Both front ends share one validation and
//! one [`Scenario::run`].
//!
//! ```
//! use lams_core::Scenario;
//!
//! let s: Scenario = "app=shape scale=tiny policy=rrs quantum=500".parse().unwrap();
//! assert_eq!(s.to_string(), "app=shape scale=tiny policy=rrs quantum=500");
//! assert_eq!(
//!     "app=shape scale=tiny policy=rrs quantum=0".parse::<Scenario>().unwrap_err().to_string(),
//!     "quantum must be at least 1"
//! );
//! ```

use std::fmt::{self, Display};
use std::str::FromStr;
use std::sync::Arc;

use lams_mpsoc::{BusConfig, CacheConfig, MachineConfig};
use lams_trace::TraceBundle;
use lams_workloads::{suite, Scale, Workload};

use crate::{
    execute_bundle, ArrivalConfig, ArtifactCache, EngineConfig, Error, Experiment, PolicyKind,
    Result, RunResult, SharingMatrix, DEFAULT_QUANTUM,
};

/// What a scenario simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// One suite application at a scale (`app=NAME scale=S`), as in
    /// Figure 6. The name is kept as given; it is looked up when the
    /// scenario runs.
    App {
        /// Suite name, in any case ([`suite::by_name`]).
        name: String,
        /// Problem scale.
        scale: Scale,
    },
    /// The first `tasks` suite applications run together
    /// (`mix=N scale=S`), as in Figure 7 ([`suite::mix`]).
    Mix {
        /// Number of applications, `1..=6`.
        tasks: usize,
        /// Problem scale.
        scale: Scale,
    },
    /// A recorded `.ltr` bundle (`file=PATH`).
    File(String),
}

/// What a [`Source`] loads to.
#[derive(Debug)]
pub enum Loaded {
    /// A suite workload, compiled when it runs.
    Workload(Workload),
    /// A recorded bundle, its programs already compiled.
    Bundle(TraceBundle),
}

impl Source {
    /// Builds the suite workload, or reads and decodes the bundle.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownApp`] for a name the suite lacks,
    /// [`Error::Workload`] when a workload fails to build,
    /// [`Error::Unreadable`] and [`Error::Trace`] for a file that
    /// cannot be read or decoded.
    pub fn load(&self) -> Result<Loaded> {
        let apps = match self {
            Source::App { name, scale } => {
                vec![suite::by_name(name, *scale).ok_or_else(|| Error::UnknownApp(name.clone()))?]
            }
            Source::Mix { tasks, scale } => suite::mix(*tasks, *scale),
            Source::File(path) => {
                let bytes = std::fs::read(path).map_err(|e| Error::Unreadable {
                    path: path.clone(),
                    reason: e.to_string(),
                })?;
                return Ok(Loaded::Bundle(
                    TraceBundle::from_bytes(&bytes).map_err(Error::Trace)?,
                ));
            }
        };
        Ok(Loaded::Workload(Workload::concurrent(apps)?))
    }
}

/// One scenario: a source, a policy, and the optional knobs. An absent
/// knob takes the [`Experiment`] default (8 cores, the paper's cache, no
/// bus, [`DEFAULT_QUANTUM`], seed 0, no deadline, batch arrivals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// What to simulate.
    pub source: Source,
    /// Scheduling policy; never LSM on a file source, whose bundle has
    /// no symbolic arrays to re-layout.
    pub policy: PolicyKind,
    /// Core count, `1..=`[`Scenario::MAX_CORES`].
    pub cores: Option<usize>,
    /// RRS preemption quantum in cycles, at least 1.
    pub quantum: Option<u64>,
    /// RS seed.
    pub seed: Option<u64>,
    /// Shared-bus contention model.
    pub bus: Option<BusConfig>,
    /// Per-core cache geometry (see [`Scenario::MAX_CORES`]).
    pub cache: Option<CacheConfig>,
    /// Simulated-cycle budget ([`Experiment::with_deadline_cycles`]).
    pub deadline: Option<u64>,
    /// Open-system arrival stream ([`Experiment::with_arrivals`]).
    pub arrivals: Option<ArrivalConfig>,
}

impl Scenario {
    /// Every key a scenario reads, in the order it reads and prints
    /// them.
    pub const KEYS: [&'static str; 12] = [
        "file", "app", "mix", "scale", "policy", "bus", "arrivals", "cache", "cores", "quantum",
        "seed", "deadline",
    ];

    /// Most cores a scenario may ask for: 128× the paper's 8-core
    /// machine. A machine allocates ≈ 24 KB of cache model per core,
    /// so an unbounded count lets one request line exhaust memory — an
    /// abort no `catch_unwind` can isolate. A `cache` is held to as
    /// much model: `cores ×` its lines at most `MAX_CORES ×` the 256.
    pub const MAX_CORES: usize = 1024;

    /// Reads a scenario from `fields`: a `file` source when `file` is
    /// set, else an `app` or `mix` at a `scale`. Keys are checked in
    /// [`Scenario::KEYS`] order, so a line with several bad keys
    /// always names the same one. Keys this source does not read stay
    /// in `fields` for [`Fields::finish`] to refuse.
    ///
    /// # Errors
    ///
    /// The first missing, malformed or out-of-range key.
    pub fn from_fields(fields: &mut Fields<'_>, file: bool) -> Parsed<Self> {
        let source = if file {
            Source::File(fields.require("file")?.to_string())
        } else {
            let app = fields.take("app");
            let mix = match (app, fields.take("mix")) {
                (Some(_), Some(_)) => return Err(FieldError::Conflict("app", "mix")),
                (None, None) => return Err(FieldError::Missing("app")),
                (_, mix) => mix.map(|t| {
                    let tasks = parse("mix", t)?;
                    in_range("mix", tasks as u64, 1, suite::NAMES.len() as u64)?;
                    Ok(tasks)
                }),
            };
            let scale = parse("scale", fields.require("scale")?)?;
            match mix.transpose()? {
                Some(tasks) => Source::Mix { tasks, scale },
                None => Source::App {
                    name: app.unwrap_or_default().to_string(),
                    scale,
                },
            }
        };
        let policy = parse("policy", fields.require("policy")?)?;
        if file && policy == PolicyKind::LocalityMap {
            return Err(FieldError::LsmOnFile);
        }
        let bus = fields.parsed("bus")?;
        let arrivals = fields.parsed("arrivals")?;
        let cache = fields.parsed::<CacheConfig>("cache")?;
        let cores = fields.parsed::<usize>("cores")?;
        if let Some(n) = cores {
            in_range("cores", n as u64, 1, Scenario::MAX_CORES as u64)?;
        }
        if let Some(c) = cache {
            let n = cores.unwrap_or(MachineConfig::paper_default().num_cores) as u64;
            let most = Scenario::MAX_CORES as u64 * CacheConfig::paper_default().num_lines();
            in_range("cores * cache lines", n * c.num_lines(), 1, most)?;
        }
        let quantum = fields.parsed("quantum")?;
        if let Some(q) = quantum {
            in_range("quantum", q, 1, u64::MAX)?;
        }
        Ok(Scenario {
            source,
            policy,
            cores,
            quantum,
            seed: fields.parsed("seed")?,
            bus,
            cache,
            deadline: fields.parsed("deadline")?,
            arrivals,
        })
    }

    /// The machine the scenario names: the paper's, with its core
    /// count, cache and bus.
    pub fn machine(&self) -> MachineConfig {
        let mut machine = MachineConfig::paper_default();
        if let Some(n) = self.cores {
            machine = machine.with_cores(n);
        }
        machine.cache = self.cache.unwrap_or(machine.cache);
        if let Some(bus) = self.bus {
            machine = machine.with_bus(bus);
        }
        machine
    }

    /// The [`Experiment`] that runs `workload` on `machine` under the
    /// scenario's quantum, seed, deadline and arrivals: the one place
    /// a scenario's knobs map onto an experiment.
    pub fn experiment(&self, workload: Workload, machine: MachineConfig) -> Experiment {
        let mut exp = Experiment::for_workload(workload, machine);
        if let Some(q) = self.quantum {
            exp = exp.with_quantum(q);
        }
        if let Some(s) = self.seed {
            exp = exp.with_seed(s);
        }
        if let Some(d) = self.deadline {
            exp = exp.with_deadline_cycles(d);
        }
        if let Some(a) = self.arrivals {
            exp = exp.with_arrivals(a);
        }
        exp
    }

    /// Runs the scenario on `machine` ([`Scenario::machine`], or a
    /// variant of it, say one that explains its misses) and returns the
    /// workload's name with the result. A suite source runs as its
    /// [`Scenario::experiment`] against `memo`; a file source replays
    /// its bundle through [`execute_bundle`], with RS, RRS or LS.
    ///
    /// # Errors
    ///
    /// [`Source::load`]'s errors, then the engine's.
    ///
    /// # Panics
    ///
    /// Panics on a value [`Scenario::from_fields`] would refuse: a zero
    /// quantum under RRS, or a mix outside `1..=6`.
    pub fn run(
        &self,
        machine: MachineConfig,
        memo: &Arc<ArtifactCache>,
    ) -> Result<(String, RunResult)> {
        let bundle = match self.source.load()? {
            Loaded::Bundle(bundle) => bundle,
            Loaded::Workload(workload) => {
                let name = workload.name().to_string();
                let exp = self
                    .experiment(workload, machine)
                    .with_memo(Arc::clone(memo));
                return Ok((name, exp.run(self.policy)?));
            }
        };
        let mut cfg = EngineConfig::from(machine);
        cfg.max_cycles = self.deadline;
        cfg.arrivals = self.arrivals;
        let mut policy = self.policy.scheduler(
            self.seed.unwrap_or(0),
            self.quantum.unwrap_or(DEFAULT_QUANTUM),
            machine.num_cores,
            || Arc::new(SharingMatrix::from_bundle(&bundle)),
        );
        let result = execute_bundle(&bundle, policy.as_mut(), cfg)?;
        Ok((bundle.name, result))
    }
}

impl FromStr for Scenario {
    type Err = FieldError;

    /// Parses the keys of a `run` line (an `app` or `mix` source) or a
    /// `replay` line (a `file` source), without the verb and `id`.
    fn from_str(s: &str) -> Parsed<Self> {
        let mut fields = Fields::parse(s.split_ascii_whitespace())?;
        let file = fields.contains("file");
        let scenario = Scenario::from_fields(&mut fields, file)?;
        fields.finish()?;
        Ok(scenario)
    }
}

impl Display for Scenario {
    /// Writes the keys [`FromStr`] reads, absent knobs omitted.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Source::File(path) => write!(f, "file={path}")?,
            Source::App { name, scale } => write!(f, "app={name} scale={scale}")?,
            Source::Mix { tasks, scale } => write!(f, "mix={tasks} scale={scale}")?,
        }
        write!(f, " policy={}", self.policy.abbrev().to_ascii_lowercase())?;
        if let Some(bus) = self.bus {
            write!(f, " bus={bus}")?;
        }
        if let Some(a) = self.arrivals {
            write!(f, " arrivals={a}")?;
        }
        if let Some(c) = self.cache {
            write!(f, " cache={c}")?;
        }
        let knobs = [
            ("cores", self.cores.map(|n| n as u64)),
            ("quantum", self.quantum),
            ("seed", self.seed),
            ("deadline", self.deadline),
        ];
        for (key, value) in knobs {
            if let Some(v) = value {
                write!(f, " {key}={v}")?;
            }
        }
        Ok(())
    }
}

/// The result of reading `key=value` fields.
pub type Parsed<T> = std::result::Result<T, FieldError>;

/// Why a `key=value` line, or the scenario in it, was refused.
/// `Display` writes the wire's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// A token without `=`.
    Bare(String),
    /// A token with an empty key or value.
    Empty(String),
    /// A key given twice.
    Duplicate(String),
    /// A key nothing read.
    Unknown(String),
    /// A required key is absent.
    Missing(&'static str),
    /// A value its key's type does not parse, with the type's reason.
    Malformed {
        /// The key.
        key: &'static str,
        /// The value as given.
        value: String,
        /// The type's parse error.
        reason: String,
    },
    /// A count below its least value.
    Below(&'static str, u64),
    /// A count above its greatest value.
    Above(&'static str, u64),
    /// Two keys that exclude each other.
    Conflict(&'static str, &'static str),
    /// `policy=lsm` on a file source.
    LsmOnFile,
}

impl Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Bare(tok) => write!(f, "bare token '{tok}' (expected key=value)"),
            FieldError::Empty(tok) => write!(f, "empty key or value in '{tok}'"),
            FieldError::Duplicate(key) => write!(f, "duplicate key '{key}'"),
            FieldError::Unknown(key) => write!(f, "unknown key '{key}'"),
            FieldError::Missing(key) => write!(f, "missing required key '{key}'"),
            FieldError::Malformed { key, value, reason } => match *key {
                "scale" | "policy" => write!(f, "unknown {key} '{value}'"),
                // An arrival or cache spec can be wrong in several
                // ways: name which.
                "arrivals" | "cache" => write!(f, "invalid {key} '{value}': {reason}"),
                _ => write!(f, "invalid {key} '{value}'"),
            },
            FieldError::Below(key, least) => write!(f, "{key} must be at least {least}"),
            FieldError::Above(key, most) => write!(f, "{key} must be at most {most}"),
            FieldError::Conflict(a, b) => write!(f, "{a} and {b} exclude each other"),
            FieldError::LsmOnFile => f.write_str(
                "policy lsm cannot replay: a bundle has no symbolic arrays to re-layout",
            ),
        }
    }
}

fn parse<T: FromStr>(key: &'static str, value: &str) -> Parsed<T>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| FieldError::Malformed {
        key,
        value: value.to_string(),
        reason: e.to_string(),
    })
}

/// Refuses a well-formed count `key` outside `least..=most` — one that
/// names no machine, time slice or mix: zero cores or a zero quantum
/// would reach an assertion inside the simulator instead of an error.
pub fn in_range(key: &'static str, n: u64, least: u64, most: u64) -> Parsed<()> {
    if n < least {
        Err(FieldError::Below(key, least))
    } else if n > most {
        Err(FieldError::Above(key, most))
    } else {
        Ok(())
    }
}

/// `key=value` pairs read strictly: each key once, and every key
/// consumed by someone — a typo must not silently run another
/// scenario. A command line spells the same pairs `--key value`
/// ([`Fields::from_flags`]).
#[derive(Debug, Default, Clone)]
pub struct Fields<'a> {
    /// `(key, value, consumed)`, in the order given.
    pairs: Vec<(&'a str, &'a str, bool)>,
}

impl<'a> Fields<'a> {
    /// Reads `key=value` tokens.
    ///
    /// # Errors
    ///
    /// The first token without `=`, with an empty key or value, or
    /// repeating a key.
    pub fn parse(tokens: impl IntoIterator<Item = &'a str>) -> Parsed<Self> {
        let mut fields = Fields::default();
        for tok in tokens {
            let Some((key, value)) = tok.split_once('=') else {
                return Err(FieldError::Bare(tok.to_string()));
            };
            if key.is_empty() || value.is_empty() {
                return Err(FieldError::Empty(tok.to_string()));
            }
            if fields.contains(key) {
                return Err(FieldError::Duplicate(key.to_string()));
            }
            fields.pairs.push((key, value, false));
        }
        Ok(fields)
    }

    /// Reads `--key value` pairs, the command-line spelling of the
    /// tokens [`Fields::parse`] reads; a value may start with `-`, not
    /// with `--`.
    ///
    /// # Errors
    ///
    /// The first token out of grammar, its key named without `--`:
    /// [`FieldError::Bare`] where a `--key` belongs, `Unknown` for a key
    /// outside `known` (before its value), `Empty` for a key without a
    /// value, `Duplicate` for a key given twice.
    pub fn from_flags(args: &'a [String], known: &[&str]) -> Parsed<Self> {
        let mut fields = Fields::default();
        let mut args = args.iter();
        while let Some(tok) = args.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(FieldError::Bare(tok.clone()));
            };
            if !known.contains(&key) {
                return Err(FieldError::Unknown(key.to_string()));
            }
            let Some(value) = args.next().filter(|v| !v.starts_with("--")) else {
                return Err(FieldError::Empty(key.to_string()));
            };
            if fields.contains(key) {
                return Err(FieldError::Duplicate(key.to_string()));
            }
            fields.pairs.push((key, value, false));
        }
        Ok(fields)
    }

    /// Sets `key` to `value`, replacing an earlier value.
    pub fn set(&mut self, key: &'a str, value: &'a str) {
        self.pairs.retain(|&(k, ..)| k != key);
        self.pairs.push((key, value, false));
    }

    /// Whether `key` was given.
    pub fn contains(&self, key: &str) -> bool {
        self.pairs.iter().any(|&(k, ..)| k == key)
    }

    /// Consumes `key`'s value, if it was given.
    pub fn take(&mut self, key: &str) -> Option<&'a str> {
        let pair = self.pairs.iter_mut().find(|(k, ..)| *k == key)?;
        pair.2 = true;
        Some(pair.1)
    }

    fn require(&mut self, key: &'static str) -> Parsed<&'a str> {
        self.take(key).ok_or(FieldError::Missing(key))
    }

    /// Consumes `key`'s value parsed as a `T`, if it was given.
    ///
    /// # Errors
    ///
    /// [`FieldError::Malformed`] when it does not parse.
    pub fn parsed<T: FromStr>(&mut self, key: &'static str) -> Parsed<Option<T>>
    where
        T::Err: Display,
    {
        self.take(key).map(|v| parse(key, v)).transpose()
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// [`FieldError::Unknown`] for the first key nothing consumed.
    pub fn finish(self) -> Parsed<()> {
        match self.pairs.iter().find(|&&(.., used)| !used) {
            Some(&(key, ..)) => Err(FieldError::Unknown(key.to_string())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_source_prints_what_it_parses() {
        for line in [
            "app=Shape scale=tiny policy=lsm",
            "mix=3 scale=small policy=rrs quantum=500 seed=9",
            "file=t.ltr policy=ls bus=windowed:20:256 arrivals=burst:1.250:7:64 cores=4 deadline=10",
            "mix=2 scale=tiny policy=ls cache=4096:1:32 quantum=1000",
        ] {
            let s: Scenario = line.parse().unwrap();
            assert_eq!(s.to_string(), line);
        }
        let s: Scenario = "policy=LS scale=TINY app=shape bus=fcfs:20"
            .parse()
            .unwrap();
        assert_eq!(s.to_string(), "app=shape scale=tiny policy=ls bus=fcfs:20");
    }

    #[test]
    fn the_source_decides_which_keys_are_read() {
        let err = |line: &str| line.parse::<Scenario>().unwrap_err().to_string();
        assert_eq!(
            err("file=t.ltr policy=rs scale=tiny"),
            "unknown key 'scale'"
        );
        assert_eq!(
            err("file=t.ltr policy=lsm"),
            FieldError::LsmOnFile.to_string()
        );
        assert_eq!(err("scale=tiny policy=rs"), "missing required key 'app'");
        assert_eq!(
            err("app=shape mix=2 scale=tiny policy=rs"),
            "app and mix exclude each other"
        );
        assert_eq!(err("mix=0 scale=tiny policy=rs"), "mix must be at least 1");
        assert_eq!(err("mix=7 scale=tiny policy=rs"), "mix must be at most 6");
        assert_eq!(err("mix=x scale=tiny policy=rs"), "invalid mix 'x'");
        assert_eq!(
            err("app=shape scale=tiny policy=rs id=1"),
            "unknown key 'id'"
        );
    }

    #[test]
    fn a_cache_is_a_valid_geometry_within_the_model_bound() {
        let err = |line: &str| line.parse::<Scenario>().unwrap_err().to_string();
        assert_eq!(
            err("app=shape scale=tiny policy=rs cache=4096:2"),
            "invalid cache '4096:2': invalid configuration: cache spec '4096:2' is not SIZE:ASSOC:LINE"
        );
        assert!(
            err("app=shape scale=tiny policy=rs cache=4096:3:32")
                .starts_with("invalid cache '4096:3:32': invalid configuration: associativity 3"),
            "{}",
            err("app=shape scale=tiny policy=rs cache=4096:3:32")
        );
        // 1,024 cores of the paper's 256 lines is the most cache model a
        // line may ask for; one line more is refused.
        assert_eq!(
            err("app=shape scale=tiny policy=rs cache=16384:2:32 cores=1024"),
            "cores * cache lines must be at most 262144"
        );
        assert_eq!(
            err("app=shape scale=tiny policy=rs cache=2097152:2:32"),
            "cores * cache lines must be at most 262144"
        );
        for line in [
            "app=shape scale=tiny policy=rs cache=8192:2:32 cores=1024",
            "app=shape scale=tiny policy=rs cache=1048576:2:32 cores=8",
            "app=shape scale=tiny policy=rs cache=8388608:2:32 cores=1",
        ] {
            let s: Scenario = line.parse().unwrap();
            let m = s.machine();
            assert_eq!(m.num_cores as u64 * m.cache.num_lines(), 262_144, "{line}");
        }
        let s: Scenario = "app=shape scale=tiny policy=rs cache=4096:1:32"
            .parse()
            .unwrap();
        assert_eq!(s.machine().cache, CacheConfig::new(4096, 1, 32).unwrap());
    }

    #[test]
    fn set_replaces_a_default() {
        let mut fields = Fields::default();
        fields.set("policy", "ls");
        fields.set("app", "shape");
        fields.set("scale", "tiny");
        fields.set("policy", "rrs");
        let s = Scenario::from_fields(&mut fields, false).unwrap();
        fields.finish().unwrap();
        assert_eq!(s.policy, PolicyKind::RoundRobin);
    }

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_read_as_the_pairs_a_line_spells() {
        let args = flags(&["--scale", "tiny", "--policy", "rrs", "--app", "shape"]);
        let mut fields = Fields::from_flags(&args, &Scenario::KEYS).unwrap();
        let s = Scenario::from_fields(&mut fields, false).unwrap();
        fields.finish().unwrap();
        assert_eq!(s.to_string(), "app=shape scale=tiny policy=rrs");
        // A negative number is a value, not a flag.
        let args = flags(&["--tasks", "-1"]);
        let mut fields = Fields::from_flags(&args, &["tasks"]).unwrap();
        assert_eq!(fields.take("tasks"), Some("-1"));
        assert_eq!(Fields::from_flags(&[], &[]).unwrap().finish(), Ok(()));
    }

    #[test]
    fn flags_break_the_grammar_where_a_line_would() {
        let known = ["scale", "threads"];
        let err = |args: &[&str]| Fields::from_flags(&flags(args), &known).unwrap_err();
        let unknown = |key: &str| FieldError::Unknown(key.into());
        // An unknown name is refused at its place, before its value.
        assert_eq!(err(&["--threads", "2", "--help"]), unknown("help"));
        assert_eq!(err(&["--scal", "tiny"]), unknown("scal"));
        assert_eq!(err(&["--", "tiny"]), unknown(""));
        for args in [&["--scale"][..], &["--scale", "--threads", "2"]] {
            assert_eq!(err(args), FieldError::Empty("scale".into()), "{args:?}");
        }
        assert_eq!(
            err(&["--threads", "1", "--threads", "4"]),
            FieldError::Duplicate("threads".into())
        );
        for (args, tok) in [
            (&["tiny", "--scale", "tiny"][..], "tiny"),
            (&["--scale", "tiny", "small"], "small"),
            (&["-scale", "tiny"], "-scale"),
        ] {
            assert_eq!(err(args), FieldError::Bare(tok.into()), "{args:?}");
        }
    }

    #[test]
    fn a_file_source_reports_why_it_cannot_load() {
        let missing = Source::File("no/such/dir/t.ltr".into());
        assert!(matches!(missing.load(), Err(Error::Unreadable { .. })));
        let app = Source::App {
            name: "nonesuch".into(),
            scale: Scale::Tiny,
        };
        assert_eq!(
            app.load().unwrap_err().to_string(),
            "unknown app 'nonesuch'"
        );
    }
}
