//! The versioned query surface shared by the CLI and `llama3sim serve`.
//!
//! Every front end — the `llama3sim` subcommands and the HTTP daemon —
//! speaks the same API: build a [`Query`], dispatch it (the dispatcher
//! lives in the `serve` crate, above this one), and render the
//! [`Response`]. The wire encoding is a single line of text,
//!
//! ```text
//! llama3sim/1 <kind> key=value key=value ...
//! ```
//!
//! with the protocol version first (see [`QUERY_API_VERSION`]), so a
//! server can reject queries from a future client instead of
//! misreading them. Keys at their default value are omitted; the
//! encoder emits keys in one fixed order, which makes
//! [`Query::canonical_wire`] a canonical form: two queries are the
//! same computation iff their canonical lines are equal. The canonical
//! form also normalizes out the pure *execution hint* (the `threads`
//! knob), so a thundering herd that only disagrees about it coalesces
//! onto one computation.
//!
//! Each record-shaped kind (`search`, `trace`, `infer`, `fuzz`, and
//! `analyze` through a flat key record) has one [`Field`] table, in
//! canonical key order. That table is the whole grammar: it drives
//! [`Query::to_wire`], [`Query::parse_wire`], the `llama3sim` flags
//! ([`Record::from_args`]: key `k` is flag `--k` with `_` written as
//! `-`, taking exactly the wire value) and the usage text
//! ([`Record::usage`]). Numbers are decimal or `0x` hex on input, and
//! always decimal on output.
//!
//! This module defines only data — no I/O, no dispatch — so it can sit
//! in `parallelism_core` without dragging the analyzer, conformance or
//! bench crates into the dependency graph. A `llama3sim lint` rule
//! (LINT005) keeps these wire types out of the crates *below* core:
//! the substrate must not grow knowledge of the network protocol.

use crate::analyze;
use crate::fsdp::ZeroMode;
use crate::infer::{InferPlan, InferReport, InferSpec, InferenceModel};
use crate::run::GoodputReport;
use crate::search::{SearchReport, SearchSpec};
use crate::step::Workload;
use collectives::CacheStats;
use sim_engine::time::SimDuration;
use std::fmt;
use workload::traffic::{TrafficShape, TrafficSpec};

/// Query-schema version.
///
/// - **v1** — the original seven kinds (`analyze`, `fuzz`, `bench`,
///   `goodput`, `search`, `stats`, `trace`), implicitly all training.
/// - **v2** — workload-generic: adds the `infer` kind and the
///   `workload=` key on `search`. Purely additive, so the magic token
///   below stays at `llama3sim/1` and every v1 line (and its canonical
///   encoding) is byte-identical under v2.
/// - **v3** — every kind but `stats` is a pure function of its query:
///   the wall-clock `bench` kind is gone (now an unknown kind) and the
///   `goodput` answer carries no wall-clock. Other lines are unchanged.
/// - **v4** — the no-op `guided` search key is gone (now an unknown
///   key, and `--guided` an unknown flag). Other lines are unchanged.
/// - **v5** — the `stats` answer loses its `frontier reuses` counter:
///   every search runs its own funnel. Query lines are unchanged.
pub const QUERY_API_VERSION: u32 = 5;

/// The magic token opening every wire line, `llama3sim/<wire-format>`.
/// This tracks the *line format*, which has not changed; see
/// [`QUERY_API_VERSION`] for the schema revision.
pub const WIRE_MAGIC: &str = "llama3sim/1";

/// A malformed or unanswerable query, or a fault in answering it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// What went wrong, suitable for the wire error line.
    pub message: String,
    /// Whose fault it is.
    pub class: ErrorClass,
}

/// Whose fault a [`QueryError`] is: HTTP answers a client fault with
/// 400 and a server fault with 500.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The query itself is wrong: it does not parse, names an unknown
    /// model or config, or asks for a plan that cannot exist.
    Client,
    /// A well-formed query the server failed to answer: the computation
    /// panicked, or a simulation it runs failed.
    Server,
}

impl QueryError {
    /// A client fault with the given message.
    pub fn new(message: impl Into<String>) -> QueryError {
        QueryError {
            message: message.into(),
            class: ErrorClass::Client,
        }
    }

    /// A server fault with the given message.
    pub fn server(message: impl Into<String>) -> QueryError {
        QueryError {
            message: message.into(),
            class: ErrorClass::Server,
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for QueryError {}

/// What the `analyze` query should look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeMode {
    /// Enumerate the named configurations.
    List,
    /// Analyze one named configuration.
    Config(String),
    /// Sweep the 64-config conformance grid.
    Grid,
    /// Analyze a single grid configuration by index (0-based). Used by
    /// the serve conformance oracle to replay the grid one query at a
    /// time.
    GridIndex(usize),
}

/// The `fuzz` query: a seeded conformance sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzQuery {
    /// Number of sampled cases.
    pub cases: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FuzzQuery {
    fn default() -> FuzzQuery {
        FuzzQuery {
            cases: 500,
            seed: 1,
        }
    }
}

/// The `search` query: the Pareto auto-parallelism sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Sequence length.
    pub seq: u64,
    /// Override the model's layer count (`0` = the model default).
    pub layers: u64,
    /// Override the token budget (`0` = the 16 M-token default).
    pub budget: u64,
    /// Goodput-refine the best `head` frontier points (0 = off).
    pub goodput_head: usize,
    /// Scoring threads (0 = all available). An execution hint, not a
    /// semantic input: the report is bit-identical for any value, so
    /// the canonical form normalizes it to 0.
    pub threads: usize,
    /// Largest CP degree to enumerate (0 = the spec default, 64).
    pub max_cp: u32,
    /// ZeRO modes to enumerate (empty = all three).
    pub zero: Vec<ZeroMode>,
    /// Report whether this `tp,cp,pp,dp` mesh is on the frontier.
    pub expect: Option<(u32, u32, u32, u32)>,
    /// Which workload to rank meshes for: training (step time, peak
    /// HBM) or inference (p99 TTFT, peak HBM).
    pub workload: Workload,
}

impl Default for SearchQuery {
    fn default() -> SearchQuery {
        SearchQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            seq: 8_192,
            layers: 0,
            budget: 0,
            goodput_head: 0,
            threads: 0,
            max_cp: 0,
            zero: Vec::new(),
            expect: None,
            workload: Workload::Training,
        }
    }
}

impl SearchQuery {
    /// Resolves the query to a [`SearchSpec`].
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model name.
    pub fn to_spec(&self) -> Result<SearchSpec, QueryError> {
        let mut spec = match self.model.as_str() {
            "405b" => SearchSpec::llama3_405b(self.gpus, self.seq),
            "70b" => SearchSpec::llama3_70b(self.gpus, self.seq),
            "8b" => SearchSpec::llama3_8b(self.gpus, self.seq),
            other => {
                return Err(QueryError::new(format!(
                    "unknown model {other:?} (want 405b|70b|8b)"
                )))
            }
        };
        if self.layers > 0 {
            spec.input.model = spec.input.model.with_layers(self.layers);
        }
        if self.budget > 0 {
            spec.input.token_budget = self.budget;
        }
        if self.max_cp > 0 {
            spec = spec.max_cp(self.max_cp);
        }
        if !self.zero.is_empty() {
            spec.zero_modes = self.zero.clone();
        }
        spec.workload = self.workload;
        Ok(spec.threads(self.threads).goodput_head(self.goodput_head))
    }
}

/// What the `trace` query should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Chrome-trace JSON of the retained (or windowed) timeline.
    #[default]
    Chrome,
    /// JSON stats envelope: tier residency plus window aggregates.
    Stats,
    /// Self-checking smoke: stream the run into the tower, seek three
    /// windows, and diff each against a full-resolution replay.
    Smoke,
}

impl TraceMode {
    /// The mode's wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            TraceMode::Chrome => "chrome",
            TraceMode::Stats => "stats",
            TraceMode::Smoke => "smoke",
        }
    }
}

/// Default fault-timeline seed for `trace` runs — the same seed the
/// `goodput` experiment pins, so the two queries describe the same
/// simulated day.
pub const DEFAULT_TRACE_SEED: u64 = 0x0060_01D9;

/// The `trace` query: simulate a multi-day run, store its timeline in
/// the tiered (tower-sampling) trace store, and export a window of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Cluster size in GPUs.
    pub gpus: u32,
    /// Sequence length.
    pub seq: u64,
    /// Run horizon, seconds.
    pub horizon_s: u64,
    /// Fault-timeline seed.
    pub seed: u64,
    /// Tier-0 capacity of the store, events.
    pub tier0: u64,
    /// Optional seek window `[t0, t1)` in seconds. With a window the
    /// response covers only that range (rematerialized by replay when
    /// it needs finer resolution than storage kept).
    pub window: Option<(u64, u64)>,
    /// Zoom level: events decimated to global-index stride `2^zoom`.
    pub zoom: u32,
    /// Response flavour.
    pub mode: TraceMode,
}

impl Default for TraceQuery {
    fn default() -> TraceQuery {
        TraceQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            seq: 8_192,
            horizon_s: 86_400,
            seed: DEFAULT_TRACE_SEED,
            tier0: 4_096,
            window: None,
            zoom: 0,
            mode: TraceMode::default(),
        }
    }
}

impl TraceQuery {
    /// Resolves the query to a [`crate::step::StepModel`] via the §5.1
    /// planner: the planner picks the configuration, then the search's
    /// step builder materializes it. Deterministic in the query fields.
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model name or an infeasible
    /// (model, gpus, seq) combination.
    pub fn to_step(&self) -> Result<crate::step::StepModel, QueryError> {
        use crate::planner::{plan, PlannerInput};
        let mut input = PlannerInput::llama3_405b(self.gpus, self.seq);
        input.model = model_config(&self.model)?;
        let p = plan(&input).map_err(|e| QueryError::new(format!("trace: {e}")))?;
        crate::search::SearchSpec::training(input)
            .build_step(&p.config)
            .ok_or_else(|| QueryError::new("trace: planned configuration is not admissible"))
    }
}

/// The `infer` query: price a serving workload — seeded traffic over a
/// TP/PP/replica mesh with continuous batching and paged KV cache.
#[derive(Debug, Clone, PartialEq)]
pub struct InferQuery {
    /// Model name: `405b`, `70b` or `8b`.
    pub model: String,
    /// Fleet size in GPUs.
    pub gpus: u32,
    /// Tensor-parallel degree per replica (`0` = auto-plan).
    pub tp: u32,
    /// Pipeline stages per replica (`0` = auto-plan).
    pub pp: u32,
    /// Traffic intensity profile.
    pub traffic: TrafficShape,
    /// Offered load, requests per day (the rate holds even when the
    /// horizon is shorter than a day).
    pub requests_per_day: u64,
    /// Arrival-window length, seconds.
    pub horizon_s: u64,
    /// Traffic seed.
    pub seed: u64,
    /// KV-block size, tokens.
    pub block: u64,
    /// Max resident sequences per replica.
    pub max_batch: usize,
    /// TTFT SLO, milliseconds.
    pub slo_ttft_ms: u64,
    /// TPOT SLO, milliseconds.
    pub slo_tpot_ms: u64,
    /// Simulation threads (`0` = all available). An execution hint —
    /// results are bit-identical for any value, so the canonical form
    /// normalizes it to 0.
    pub threads: usize,
}

impl Default for InferQuery {
    fn default() -> InferQuery {
        InferQuery {
            model: "405b".to_string(),
            gpus: 16_384,
            tp: 0,
            pp: 0,
            traffic: TrafficShape::Diurnal,
            requests_per_day: 1_000_000,
            horizon_s: 86_400,
            seed: 1,
            block: 16,
            max_batch: 256,
            slo_ttft_ms: 2_000,
            slo_tpot_ms: 100,
            threads: 0,
        }
    }
}

/// Resolves a `model=` name to its configuration.
fn model_config(name: &str) -> Result<llm_model::TransformerConfig, QueryError> {
    use llm_model::TransformerConfig;
    match name {
        "405b" => Ok(TransformerConfig::llama3_405b()),
        "70b" => Ok(TransformerConfig::llama3_70b()),
        "8b" => Ok(TransformerConfig::llama3_8b()),
        other => Err(QueryError::new(format!(
            "unknown model {other:?} (want 405b|70b|8b)"
        ))),
    }
}

impl InferQuery {
    /// Resolves the query to an [`InferenceModel`]: explicit `tp`/`pp`
    /// when given, otherwise [`InferPlan::auto`], with replicas filling
    /// the fleet.
    ///
    /// # Errors
    /// [`QueryError`] on an unknown model, an infeasible mesh, or a
    /// fleet smaller than one replica.
    pub fn to_model(&self) -> Result<InferenceModel, QueryError> {
        let cfg = model_config(&self.model)?;
        let gpu = cluster_model::gpu::GpuSpec::h100_sxm_hbm3();
        let gpus_per_node = 8;
        let plan = if self.tp > 0 || self.pp > 0 {
            let tp = self.tp.max(1);
            let pp = self.pp.max(1);
            if tp * pp > self.gpus {
                return Err(QueryError::new(format!(
                    "infer: tp {tp} × pp {pp} exceeds the {}-GPU fleet",
                    self.gpus
                )));
            }
            InferPlan::new(tp, pp, self.gpus / (tp * pp))
        } else {
            InferPlan::auto(&cfg, &gpu, self.gpus, gpus_per_node).ok_or_else(|| {
                QueryError::new(format!(
                    "infer: no tp×pp plan fits {} on {} GPUs",
                    self.model, self.gpus
                ))
            })?
        };
        let spec = InferSpec::new(cfg, gpu, gpus_per_node, plan)
            .block_tokens(self.block.max(1))
            .max_batch(self.max_batch)
            .threads(self.threads)
            .slo(
                SimDuration::from_millis(self.slo_ttft_ms),
                SimDuration::from_millis(self.slo_tpot_ms),
            );
        InferenceModel::new(spec).map_err(|e| QueryError::new(format!("infer: {e}")))
    }

    /// The seeded traffic this query offers.
    pub fn traffic_spec(&self) -> TrafficSpec {
        TrafficSpec::serving_day(self.traffic, self.requests_per_day, self.seed)
            .horizon_s(self.horizon_s as f64)
    }
}

/// One query: everything a client can ask of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Pre-flight static analysis (no simulation).
    Analyze(AnalyzeMode),
    /// Seeded conformance fuzz sweep.
    Fuzz(FuzzQuery),
    /// The seeded 24 h production goodput simulation.
    Goodput,
    /// The Pareto auto-parallelism search.
    Search(SearchQuery),
    /// Memo-layer and dispatcher statistics.
    Stats,
    /// Tiered-trace export of a simulated multi-day run.
    Trace(TraceQuery),
    /// Continuous-batching inference simulation over seeded traffic.
    Infer(InferQuery),
}

/// How a [`Field`] is spelled on the `llama3sim` command line. The
/// flag for key `k` is `--k` with `_` written as `-`, and its value is
/// exactly the wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg {
    /// `--k VALUE`; the string is VALUE's placeholder in the usage text.
    Value(&'static str),
    /// One bare switch per listed variant: `--v` means `k=v`.
    Variants(&'static [&'static str]),
    /// No flag: the key exists only on the wire.
    WireOnly,
}

/// One wire key of a query kind: the single definition that the wire
/// codec, the CLI flags and the usage text are all derived from.
pub struct Field<Q: 'static> {
    /// The wire key.
    pub(crate) key: &'static str,
    /// The CLI spelling.
    pub(crate) arg: Arg,
    /// One-line help for the usage text.
    pub(crate) help: &'static str,
    /// Parses a wire value into the field.
    pub(crate) parse: fn(&mut Q, &str) -> Result<(), String>,
    /// Renders the field as a wire value. A field whose rendering
    /// equals the default's is omitted from the wire.
    pub(crate) render: fn(&Q) -> String,
}

impl<Q> Field<Q> {
    fn flag(&self) -> String {
        format!("--{}", self.key.replace('_', "-"))
    }

    /// The `(key, value)` pair CLI argument `arg` stands for; the value
    /// is `None` when it is the next argument.
    fn match_flag(&self, arg: &str) -> Option<(&'static str, Option<&'static str>)> {
        match self.arg {
            Arg::Value(_) if self.flag() == arg => Some((self.key, None)),
            Arg::Variants(vs) => {
                let v = vs.iter().find(|&&v| arg.strip_prefix("--") == Some(v))?;
                Some((self.key, Some(*v)))
            }
            _ => None,
        }
    }
}

/// A query kind whose wire form is one [`Field`] table.
pub trait Record: Default + 'static {
    /// The wire kind tag.
    const KIND: &'static str;
    /// One row per wire key, in canonical wire order.
    const FIELDS: &'static [Field<Self>];

    /// Appends ` key=value` for every field that renders differently
    /// from the default.
    fn encode(&self, out: &mut String) {
        let d = Self::default();
        for f in Self::FIELDS {
            let v = (f.render)(self);
            if v != (f.render)(&d) {
                out.push(' ');
                out.push_str(f.key);
                out.push('=');
                out.push_str(&v);
            }
        }
    }

    /// Builds the record from `key=value` pairs: unknown and repeated
    /// keys are errors, absent keys keep their defaults.
    ///
    /// # Errors
    /// [`QueryError`] naming the offending key.
    fn decode(pairs: &[(&str, &str)]) -> Result<Self, QueryError> {
        let mut q = Self::default();
        for (i, &(k, v)) in pairs.iter().enumerate() {
            if pairs[..i].iter().any(|&(seen, _)| seen == k) {
                return Err(QueryError::new(format!("duplicate key {k:?}")));
            }
            let f = Self::FIELDS
                .iter()
                .find(|f| f.key == k)
                .ok_or_else(|| QueryError::new(format!("{}: unknown key {k:?}", Self::KIND)))?;
            (f.parse)(&mut q, v).map_err(|e| QueryError::new(format!("{k}: {e}")))?;
        }
        Ok(q)
    }

    /// Builds the record from CLI flags, each translated to its wire
    /// pair and then decoded exactly as the wire is.
    ///
    /// # Errors
    /// [`QueryError`] on an unrecognized flag, a missing value, or
    /// anything [`Record::decode`] rejects.
    fn from_args(args: &[String]) -> Result<Self, QueryError> {
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(args.len());
        let mut flags: Vec<&str> = Vec::with_capacity(args.len());
        let mut rest = args.iter();
        while let Some(a) = rest.next() {
            let (key, value) = Self::FIELDS
                .iter()
                .find_map(|f| f.match_flag(a))
                .ok_or_else(|| QueryError::new(format!("unrecognized argument {a:?}")))?;
            if let Some(i) = pairs.iter().position(|&(k, _)| k == key) {
                return Err(QueryError::new(format!("{a} conflicts with {}", flags[i])));
            }
            flags.push(a);
            let value = match value {
                Some(v) => v,
                None => rest
                    .next()
                    .ok_or_else(|| QueryError::new(format!("{a} requires a value")))?,
            };
            pairs.push((key, value));
        }
        Self::decode(&pairs)
    }

    /// The usage text's `(flags, help)` line of every CLI-visible
    /// field, with the default appended when it is not empty.
    fn usage() -> Vec<(String, String)> {
        let d = Self::default();
        Self::FIELDS
            .iter()
            .filter_map(|f| {
                let flags = match f.arg {
                    Arg::Value(placeholder) => format!("{} {placeholder}", f.flag()),
                    Arg::Variants(vs) => {
                        let each: Vec<String> = vs.iter().map(|v| format!("--{v}")).collect();
                        each.join(" | ")
                    }
                    Arg::WireOnly => return None,
                };
                let default = (f.render)(&d);
                let help = if default.is_empty() {
                    f.help.to_string()
                } else {
                    format!("{} (default {default})", f.help)
                };
                Some((flags, help))
            })
            .collect()
    }
}

/// Parses a decimal or `0x`-prefixed hex number: the one number grammar
/// of the wire and the CLI. Values are always rendered in decimal.
///
/// # Errors
/// A message naming the value when it is not a number or does not fit
/// `T`.
pub fn parse_num<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    let n = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    n.ok()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("bad number {v:?}"))
}

/// Parses a comma-separated list, rejecting it if any element fails.
fn parse_list<T>(v: &str, item: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|p| item(p.trim())).collect()
}

fn parse_zero(v: &str) -> Result<ZeroMode, String> {
    match v {
        "zero1" | "1" => Ok(ZeroMode::Zero1),
        "zero2" | "2" => Ok(ZeroMode::Zero2),
        "zero3" | "3" => Ok(ZeroMode::Zero3),
        other => Err(format!("unknown mode {other:?} (want zero1|zero2|zero3)")),
    }
}

fn zero_tag(z: ZeroMode) -> &'static str {
    match z {
        ZeroMode::Zero1 => "zero1",
        ZeroMode::Zero2 => "zero2",
        ZeroMode::Zero3 => "zero3",
    }
}

/// A numeric field: decimal or hex in, decimal out.
macro_rules! num_field {
    ($key:literal, $placeholder:literal, $help:literal, $field:ident) => {
        Field {
            key: $key,
            arg: Arg::Value($placeholder),
            help: $help,
            parse: |q, v| {
                q.$field = parse_num(v)?;
                Ok(())
            },
            render: |q| q.$field.to_string(),
        }
    };
}

/// The model-name field, resolved (and validated) only when the query
/// runs.
macro_rules! model_field {
    () => {
        Field {
            key: "model",
            arg: Arg::Value("405b|70b|8b"),
            help: "model size",
            parse: |q, v| {
                q.model = v.to_string();
                Ok(())
            },
            render: |q| q.model.clone(),
        }
    };
}

impl Record for FuzzQuery {
    const KIND: &'static str = "fuzz";
    const FIELDS: &'static [Field<FuzzQuery>] = &[
        num_field!("cases", "N", "sampled cases", cases),
        num_field!("seed", "S", "RNG seed", seed),
    ];
}

impl Record for SearchQuery {
    const KIND: &'static str = "search";
    const FIELDS: &'static [Field<SearchQuery>] = &[
        model_field!(),
        num_field!("gpus", "N", "cluster size in GPUs", gpus),
        num_field!("seq", "N", "sequence length", seq),
        num_field!(
            "layers",
            "N",
            "layer-count override; 0 keeps the model's",
            layers
        ),
        num_field!(
            "budget",
            "TOKENS",
            "token-budget override; 0 keeps 16M",
            budget
        ),
        num_field!(
            "head",
            "N",
            "goodput-refine the best N frontier points; 0 = off",
            goodput_head
        ),
        num_field!(
            "threads",
            "N",
            "scoring threads; 0 = all (a hint, not hashed)",
            threads
        ),
        num_field!(
            "max_cp",
            "N",
            "largest CP degree to enumerate; 0 = 64",
            max_cp
        ),
        Field {
            key: "zero",
            arg: Arg::Value("M1[,M2...]"),
            help: "ZeRO modes to enumerate, zero1|zero2|zero3; empty = all",
            parse: |q, v| {
                q.zero = parse_list(v, parse_zero)?;
                Ok(())
            },
            render: |q| {
                let tags: Vec<&str> = q.zero.iter().map(|&z| zero_tag(z)).collect();
                tags.join(",")
            },
        },
        Field {
            key: "expect",
            arg: Arg::Value("tp,cp,pp,dp"),
            help: "exit 1 unless this mesh is on the frontier",
            parse: |q, v| {
                let [tp, cp, pp, dp] = parse_list(v, parse_num)?[..] else {
                    return Err(format!("want tp,cp,pp,dp, got {v:?}"));
                };
                q.expect = Some((tp, cp, pp, dp));
                Ok(())
            },
            render: |q| {
                q.expect.map_or(String::new(), |(tp, cp, pp, dp)| {
                    format!("{tp},{cp},{pp},{dp}")
                })
            },
        },
        Field {
            key: "workload",
            arg: Arg::Value("train|infer"),
            help: "rank meshes by step time or by serving p99 TTFT",
            parse: |q, v| {
                q.workload = Workload::parse(v)
                    .ok_or_else(|| format!("unknown tag {v:?} (want train|infer)"))?;
                Ok(())
            },
            render: |q| q.workload.tag().to_string(),
        },
    ];
}

impl Record for TraceQuery {
    const KIND: &'static str = "trace";
    const FIELDS: &'static [Field<TraceQuery>] = &[
        model_field!(),
        num_field!("gpus", "N", "cluster size in GPUs", gpus),
        num_field!("seq", "N", "sequence length", seq),
        num_field!("horizon", "S", "run horizon, seconds", horizon_s),
        num_field!("seed", "S", "fault-timeline seed", seed),
        num_field!(
            "tier0",
            "N",
            "tier-0 capacity of the trace store, events",
            tier0
        ),
        Field {
            key: "window",
            arg: Arg::Value("T0,T1"),
            help: "seek window in seconds, rematerialized replay-exact",
            parse: |q, v| {
                let [t0, t1] = parse_list(v, parse_num)?[..] else {
                    return Err(format!("want t0,t1, got {v:?}"));
                };
                if t0 >= t1 {
                    return Err(format!("t0 must be before t1, got {v:?}"));
                }
                q.window = Some((t0, t1));
                Ok(())
            },
            render: |q| {
                q.window
                    .map_or(String::new(), |(t0, t1)| format!("{t0},{t1}"))
            },
        },
        num_field!(
            "zoom",
            "N",
            "decimate events to global-index stride 2^N",
            zoom
        ),
        Field {
            key: "mode",
            arg: Arg::Variants(&["stats", "smoke"]),
            help: "window aggregates | replay self-check -> BENCH_trace.json",
            parse: |q, v| {
                q.mode = match v {
                    "chrome" => TraceMode::Chrome,
                    "stats" => TraceMode::Stats,
                    "smoke" => TraceMode::Smoke,
                    other => {
                        return Err(format!("unknown mode {other:?} (want chrome|stats|smoke)"))
                    }
                };
                Ok(())
            },
            render: |q| q.mode.tag().to_string(),
        },
    ];
}

impl Record for InferQuery {
    const KIND: &'static str = "infer";
    const FIELDS: &'static [Field<InferQuery>] = &[
        model_field!(),
        num_field!("gpus", "N", "fleet size in GPUs", gpus),
        num_field!(
            "tp",
            "N",
            "tensor-parallel degree per replica; 0 = auto",
            tp
        ),
        num_field!("pp", "N", "pipeline stages per replica; 0 = auto", pp),
        Field {
            key: "traffic",
            arg: Arg::Value("SHAPE"),
            help: "traffic profile, steady|diurnal|bursty",
            parse: |q, v| {
                q.traffic = TrafficShape::parse(v)
                    .ok_or_else(|| format!("unknown shape {v:?} (want steady|diurnal|bursty)"))?;
                Ok(())
            },
            render: |q| q.traffic.tag().to_string(),
        },
        num_field!(
            "rpd",
            "N",
            "offered load, requests per day",
            requests_per_day
        ),
        num_field!("horizon", "S", "arrival window, seconds", horizon_s),
        num_field!("seed", "S", "traffic seed", seed),
        num_field!("block", "N", "KV-block size, tokens", block),
        num_field!(
            "batch",
            "N",
            "max resident sequences per replica",
            max_batch
        ),
        num_field!("slo_ttft", "MS", "TTFT SLO, milliseconds", slo_ttft_ms),
        num_field!("slo_tpot", "MS", "TPOT SLO, milliseconds", slo_tpot_ms),
        num_field!(
            "threads",
            "N",
            "simulation threads; 0 = all (a hint, not hashed)",
            threads
        ),
    ];
}

/// The `analyze` query's wire keys. [`AnalyzeMode`] is an enum, so it
/// travels as this flat record: `mode` names the variant and `config`
/// or `index` carries its payload.
#[derive(Debug, Default)]
struct AnalyzeKeys {
    mode: Option<&'static str>,
    config: Option<String>,
    index: Option<usize>,
}

impl Record for AnalyzeKeys {
    const KIND: &'static str = "analyze";
    const FIELDS: &'static [Field<AnalyzeKeys>] = &[
        Field {
            key: "mode",
            arg: Arg::Variants(&["list", "grid"]),
            help: "list the named configs | sweep the 64-config grid (the default)",
            parse: |q, v| {
                let modes = ["list", "config", "grid", "grid_index"];
                let tag = modes.into_iter().find(|&m| m == v);
                q.mode = Some(tag.ok_or_else(|| {
                    format!("unknown mode {v:?} (want list|config|grid|grid_index)")
                })?);
                Ok(())
            },
            render: |q| q.mode.unwrap_or_default().to_string(),
        },
        Field {
            key: "config",
            arg: Arg::Value("NAME"),
            help: "analyze one named configuration",
            parse: |q, v| {
                q.config = Some(v.to_string());
                Ok(())
            },
            render: |q| q.config.clone().unwrap_or_default(),
        },
        Field {
            key: "index",
            arg: Arg::WireOnly,
            help: "analyze one grid configuration by 0-based index",
            parse: |q, v| {
                q.index = Some(parse_num(v)?);
                Ok(())
            },
            render: |q| q.index.map_or(String::new(), |i| i.to_string()),
        },
    ];
}

impl AnalyzeKeys {
    fn from_mode(mode: &AnalyzeMode) -> AnalyzeKeys {
        let (tag, config, index) = match mode {
            AnalyzeMode::List => ("list", None, None),
            AnalyzeMode::Config(name) => ("config", Some(name.clone()), None),
            AnalyzeMode::Grid => ("grid", None, None),
            AnalyzeMode::GridIndex(i) => ("grid_index", None, Some(*i)),
        };
        AnalyzeKeys {
            mode: Some(tag),
            config,
            index,
        }
    }

    /// Resolves the keys to a mode. Without `mode=`, the payload key
    /// present picks its mode (else the grid); a payload key the mode
    /// would ignore is an error.
    fn into_mode(self) -> Result<AnalyzeMode, QueryError> {
        let mode = self.mode.unwrap_or(match (&self.config, self.index) {
            (Some(_), _) => "config",
            (None, Some(_)) => "grid_index",
            (None, None) => "grid",
        });
        let err = |what: &str| Err(QueryError::new(format!("analyze: mode={mode} {what}")));
        match (mode, self.config, self.index) {
            ("list", None, None) => Ok(AnalyzeMode::List),
            ("grid", None, None) => Ok(AnalyzeMode::Grid),
            ("config", Some(name), None) => Ok(AnalyzeMode::Config(name)),
            ("grid_index", None, Some(i)) => Ok(AnalyzeMode::GridIndex(i)),
            ("config", None, _) => err("wants config=NAME"),
            ("grid_index", _, None) => err("wants index=N"),
            (_, Some(_), _) => err("ignores config="),
            _ => err("ignores index="),
        }
    }
}

impl AnalyzeMode {
    /// Parses `analyze` CLI flags through the same keys as the wire.
    ///
    /// # Errors
    /// [`QueryError`] on an unrecognized flag or an inconsistent mode.
    pub fn from_args(args: &[String]) -> Result<AnalyzeMode, QueryError> {
        AnalyzeKeys::from_args(args)?.into_mode()
    }

    /// The usage text's `(flags, help)` lines.
    pub fn usage() -> Vec<(String, String)> {
        AnalyzeKeys::usage()
    }
}

impl Query {
    /// The query kind tag used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Analyze(_) => "analyze",
            Query::Fuzz(_) => "fuzz",
            Query::Goodput => "goodput",
            Query::Search(_) => "search",
            Query::Stats => "stats",
            Query::Trace(_) => "trace",
            Query::Infer(_) => "infer",
        }
    }

    /// Encodes the query as one wire line (no trailing newline). Keys
    /// at their default value are omitted; key order is fixed, so the
    /// encoding is injective over semantically distinct queries.
    pub fn to_wire(&self) -> String {
        let mut out = format!("{WIRE_MAGIC} {}", self.kind());
        match self {
            Query::Analyze(mode) => AnalyzeKeys::from_mode(mode).encode(&mut out),
            Query::Fuzz(q) => q.encode(&mut out),
            Query::Search(q) => q.encode(&mut out),
            Query::Trace(q) => q.encode(&mut out),
            Query::Infer(q) => q.encode(&mut out),
            Query::Goodput | Query::Stats => {}
        }
        out
    }

    /// The canonical wire form: [`Query::to_wire`] with the execution
    /// hint (the `threads` knob) normalized out. Two queries describe
    /// the same computation iff their canonical lines are equal.
    pub fn canonical_wire(&self) -> String {
        match self {
            Query::Search(s) => {
                let mut c = s.clone();
                c.threads = 0;
                Query::Search(c).to_wire()
            }
            Query::Infer(i) => {
                let mut c = i.clone();
                c.threads = 0;
                Query::Infer(c).to_wire()
            }
            q => q.to_wire(),
        }
    }

    /// A stable 64-bit hash (FNV-1a) of the canonical wire form — the
    /// coalescing key of the serve dispatcher.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a(self.canonical_wire().as_bytes())
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    /// [`QueryError`] on a bad magic/version token, unknown kind,
    /// unknown/duplicate/malformed key, or a missing required key.
    pub fn parse_wire(line: &str) -> Result<Query, QueryError> {
        let mut tokens = line.split_whitespace();
        let magic = tokens
            .next()
            .ok_or_else(|| QueryError::new("empty query"))?;
        if magic != WIRE_MAGIC {
            return Err(QueryError::new(format!(
                "bad protocol token {magic:?} (this server speaks {WIRE_MAGIC})"
            )));
        }
        let kind = tokens
            .next()
            .ok_or_else(|| QueryError::new("missing query kind"))?;
        let pairs = tokens
            .map(|t| {
                t.split_once('=')
                    .ok_or_else(|| QueryError::new(format!("bad token {t:?} (want key=value)")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let bare = |q: Query| match pairs.first() {
            None => Ok(q),
            Some((k, _)) => Err(QueryError::new(format!("{kind}: unknown key {k:?}"))),
        };
        match kind {
            "analyze" => AnalyzeKeys::decode(&pairs)?.into_mode().map(Query::Analyze),
            "fuzz" => FuzzQuery::decode(&pairs).map(Query::Fuzz),
            "search" => SearchQuery::decode(&pairs).map(Query::Search),
            "trace" => TraceQuery::decode(&pairs).map(Query::Trace),
            "infer" => InferQuery::decode(&pairs).map(Query::Infer),
            "goodput" => bare(Query::Goodput),
            "stats" => bare(Query::Stats),
            other => Err(QueryError::new(format!(
                "unknown query kind {other:?} (want analyze|fuzz|goodput|search|stats|trace|infer)"
            ))),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `analyze` response payload.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyzeResponse {
    /// The named-configuration catalog: `(name, description)` pairs.
    List(Vec<(String, String)>),
    /// One analyzed configuration (a named config or one grid index).
    Config {
        /// The config's name (or grid spec display).
        name: String,
        /// The analyzer's findings.
        report: analyze::Report,
    },
    /// The full grid sweep: `(spec display, report)` per config.
    Grid(Vec<(String, analyze::Report)>),
}

impl AnalyzeResponse {
    /// `true` if any analyzed config has error-severity findings.
    pub fn has_errors(&self) -> bool {
        match self {
            AnalyzeResponse::List(_) => false,
            AnalyzeResponse::Config { report, .. } => report.has_errors(),
            AnalyzeResponse::Grid(results) => results.iter().any(|(_, r)| r.has_errors()),
        }
    }

    /// The legacy `--json` rendering: one JSON object per diagnostic
    /// (empty for a clean sweep or a list query).
    pub fn render_jsonl(&self) -> String {
        match self {
            AnalyzeResponse::List(_) => String::new(),
            AnalyzeResponse::Config { report, .. } => report.render_jsonl(),
            AnalyzeResponse::Grid(results) => results
                .iter()
                .map(|(_, r)| r.render_jsonl())
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }

    fn render_human(&self) -> String {
        match self {
            AnalyzeResponse::List(names) => names
                .iter()
                .map(|(name, desc)| format!("{name:<22} {desc}"))
                .collect::<Vec<_>>()
                .join("\n"),
            AnalyzeResponse::Config { name, report } => {
                format!("{name}: {}", report.render_human())
            }
            AnalyzeResponse::Grid(results) => {
                let mut out = String::new();
                let mut failed = 0usize;
                for (spec, report) in results {
                    if !report.is_clean() {
                        out.push_str(&format!("[{spec}]\n{}\n", report.render_human()));
                    }
                    if report.has_errors() {
                        failed += 1;
                    }
                }
                out.push_str(&format!(
                    "analyzed {} grid configs: {} with errors",
                    results.len(),
                    failed
                ));
                out
            }
        }
    }
}

/// A shrunk fuzz counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Index of the failing case in the sweep.
    pub case: u64,
    /// The original violation message.
    pub message: String,
    /// Display form of the minimized spec.
    pub min_display: String,
    /// The minimized spec's violation message.
    pub min_message: String,
    /// Accepted shrink steps.
    pub shrink_steps: u32,
    /// Ready-to-paste `#[test]` reproducing the failure.
    pub snippet: String,
}

/// The `fuzz` response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzResponse {
    /// Cases swept.
    pub cases: u64,
    /// The sweep seed.
    pub seed: u64,
    /// The first (shrunk) violation, `None` on a clean sweep.
    pub counterexample: Option<Counterexample>,
}

impl FuzzResponse {
    fn render_human(&self) -> String {
        match &self.counterexample {
            None => format!(
                "conformance fuzz: {} cases, seed {:#x}: no counterexamples",
                self.cases, self.seed
            ),
            Some(ce) => ce.snippet.clone(),
        }
    }

    /// The diagnostic lines the CLI prints to stderr on a violation.
    pub fn render_diagnostics(&self) -> Option<String> {
        self.counterexample.as_ref().map(|ce| {
            format!(
                "counterexample at case {}/{} (seed {:#x}):\n  {}\nshrunk in {} steps to: {}\n  {}\n\npaste this test to pin the regression:\n",
                ce.case, self.cases, self.seed, ce.message, ce.shrink_steps, ce.min_display,
                ce.min_message
            )
        })
    }
}

/// The `goodput` response payload: the seeded 24 h production run.
/// Fully deterministic (no wall-clock), so the serve dispatcher caches
/// and coalesces it like any other pure computation.
#[derive(Debug, Clone, PartialEq)]
pub struct GoodputResponse {
    /// The fault-timeline seed.
    pub seed: u64,
    /// The run's goodput report.
    pub report: GoodputReport,
}

impl GoodputResponse {
    fn render_human(&self) -> String {
        let r = &self.report;
        format!(
            "24 h, 16K GPUs, 405B, seed {:#x}\n\
             goodput                     {:9.4}\n\
             effective training time     {:9.4}\n\
             steps completed             {:9}\n\
             restarts                    {:9}\n\
             lost to checkpoints         {:9.0} s\n\
             lost to rework              {:9.0} s\n\
             lost to detect+restart      {:9.0} s\n\
             lost to degradation         {:9.0} s\n\
             Young/Daly interval         {:9.0} s (simulated: {:.0} s)",
            self.seed,
            r.goodput,
            r.effective_training_time_ratio(),
            r.steps_completed,
            r.restarts,
            r.loss.checkpoint_s,
            r.loss.rework_s,
            r.loss.detect_s + r.loss.restart_s,
            r.loss.degraded_s,
            r.young_daly_interval_s,
            r.checkpoint_interval_s
        )
    }
}

/// The `search` response payload. Carries no wall-clock, so two
/// dispatches of one query are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// The deterministic search report.
    pub report: SearchReport,
    /// The `expect` mesh of the query, if any.
    pub expect: Option<(u32, u32, u32, u32)>,
    /// Whether the expected mesh is on the frontier (`None` when no
    /// expectation was asked).
    pub expect_hit: Option<bool>,
}

/// One memo layer's stats line.
fn stats_line(label: &str, s: &CacheStats) -> String {
    format!(
        "{label:<17} hits {:>8}  misses {:>8}  entries {:>7}  ({:5.1}% hits)",
        s.hits,
        s.misses,
        s.entries,
        s.hit_rate() * 100.0
    )
}

/// The `stats` response payload: dispatcher counters plus every shared
/// memo layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsResponse {
    /// Queries dispatched (all kinds).
    pub queries: u64,
    /// Queries that joined an identical in-flight computation.
    pub coalesced: u64,
    /// Queries answered from the bounded response cache.
    pub response_hits: u64,
    /// Search computations actually run.
    pub searches_computed: u64,
    /// The shared collective-cost memo.
    pub cost: CacheStats,
    /// The shared schedule-shape (deadlock/race) verdict memo.
    pub sched: CacheStats,
    /// The shared TP/CP collective verdict memo.
    pub tp_cp: CacheStats,
    /// The shared FSDP collective verdict memo.
    pub fsdp: CacheStats,
    /// The shared pipeline-program memo
    /// ([`program_cache_stats`](crate::pp::sim::program_cache_stats)).
    pub programs: CacheStats,
}

impl StatsResponse {
    fn render_human(&self) -> String {
        format!(
            "queries dispatched    {:>8}\n\
             coalesced in-flight   {:>8}\n\
             response-cache hits   {:>8}\n\
             searches computed     {:>8}\n\
             {}\n{}\n{}\n{}\n{}",
            self.queries,
            self.coalesced,
            self.response_hits,
            self.searches_computed,
            stats_line("cost cache", &self.cost),
            stats_line("sched verdicts", &self.sched),
            stats_line("tp/cp verdicts", &self.tp_cp),
            stats_line("fsdp verdicts", &self.fsdp),
            stats_line("pipeline programs", &self.programs),
        )
    }
}

/// The `trace` response payload. The body is fully deterministic (no
/// wall-clock), so the serve dispatcher caches and coalesces trace
/// queries like any other pure computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceResponse {
    /// The response flavour (echoes the query).
    pub mode: TraceMode,
    /// Full-resolution events the simulated run emitted.
    pub appended: u64,
    /// Events resident in the tiered store (the memory actually used).
    pub resident: u64,
    /// Tiers in the tower (including tier 0).
    pub tiers: u32,
    /// `false` if a smoke self-check found a mismatch.
    pub ok: bool,
    /// The rendered payload: chrome-trace JSON, the stats JSON
    /// envelope, or the smoke report.
    pub body: String,
}

impl TraceResponse {
    fn render_human(&self) -> String {
        self.body.clone()
    }
}

/// The `infer` response payload. Fully deterministic (no wall-clock),
/// so the serve dispatcher caches and coalesces inference queries like
/// any other pure computation.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Model name (echoes the query).
    pub model: String,
    /// The resolved serving mesh.
    pub plan: InferPlan,
    /// Traffic shape (echoes the query).
    pub traffic: TrafficShape,
    /// Requests the trace offered.
    pub offered: u64,
    /// The serving metrics.
    pub report: InferReport,
}

impl InferResponse {
    fn render_human(&self) -> String {
        format!(
            "{} × {} GPUs  tp{} pp{} × {} replicas  traffic {}\n{}",
            self.model,
            self.plan.gpus(),
            self.plan.tp,
            self.plan.pp,
            self.plan.replicas,
            self.traffic.tag(),
            self.report.render_human()
        )
    }
}

/// One response: the result of dispatching a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Query::Analyze`].
    Analyze(AnalyzeResponse),
    /// Answer to [`Query::Fuzz`].
    Fuzz(FuzzResponse),
    /// Answer to [`Query::Goodput`].
    Goodput(GoodputResponse),
    /// Answer to [`Query::Search`].
    Search(Box<SearchResponse>),
    /// Answer to [`Query::Stats`].
    Stats(StatsResponse),
    /// Answer to [`Query::Trace`].
    Trace(TraceResponse),
    /// Answer to [`Query::Infer`].
    Infer(Box<InferResponse>),
}

impl Response {
    /// The response kind tag used on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Analyze(_) => "analyze",
            Response::Fuzz(_) => "fuzz",
            Response::Goodput(_) => "goodput",
            Response::Search(_) => "search",
            Response::Stats(_) => "stats",
            Response::Trace(_) => "trace",
            Response::Infer(_) => "infer",
        }
    }

    /// The human rendering — byte-for-byte what the CLI prints, minus
    /// the envelope lines, which stay with the caller. No trailing
    /// newline.
    pub fn render_human(&self) -> String {
        match self {
            Response::Analyze(r) => r.render_human(),
            Response::Fuzz(r) => r.render_human(),
            Response::Goodput(r) => r.render_human(),
            Response::Search(r) => r.report.render_human(),
            Response::Stats(r) => r.render_human(),
            Response::Trace(r) => r.render_human(),
            Response::Infer(r) => r.render_human(),
        }
    }

    /// The wire encoding: a status line, then the human rendering.
    /// Both the server and direct dispatch serialize through here, so
    /// the conformance oracle can compare the two byte-for-byte.
    pub fn render_wire(&self) -> String {
        format!("{WIRE_MAGIC} ok {}\n{}\n", self.kind(), self.render_human())
    }

    /// The wire encoding of an error.
    pub fn render_wire_error(err: &QueryError) -> String {
        format!("{WIRE_MAGIC} err {}\n", err.message)
    }

    /// The process exit code the CLI maps this response to.
    pub fn exit_code(&self) -> i32 {
        match self {
            Response::Analyze(r) => i32::from(r.has_errors()),
            Response::Fuzz(r) => i32::from(r.counterexample.is_some()),
            Response::Search(r) => i32::from(r.expect_hit == Some(false)),
            Response::Trace(r) => i32::from(!r.ok),
            Response::Infer(r) => i32::from(r.report.completed == 0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trips_every_kind() {
        // Record kinds are driven row by row in
        // `every_table_row_round_trips_on_the_wire_and_the_cli`; these
        // are the enum and keyless kinds plus whole-table records.
        let queries = [
            Query::Analyze(AnalyzeMode::List),
            Query::Analyze(AnalyzeMode::Grid),
            Query::Analyze(AnalyzeMode::Config("scaled_405b".into())),
            Query::Analyze(AnalyzeMode::GridIndex(17)),
            Query::Goodput,
            Query::Stats,
            Query::Fuzz(FuzzQuery { cases: 40, seed: 7 }),
            Query::Trace(TraceQuery {
                model: "8b".into(),
                gpus: 8,
                seq: 4096,
                horizon_s: 3600,
                seed: 9,
                tier0: 128,
                window: Some((100, 160)),
                zoom: 2,
                mode: TraceMode::Stats,
            }),
            Query::Infer(InferQuery {
                model: "8b".into(),
                gpus: 16,
                tp: 2,
                pp: 2,
                traffic: TrafficShape::Bursty,
                requests_per_day: 50_000,
                horizon_s: 3_600,
                seed: 9,
                block: 32,
                max_batch: 64,
                slo_ttft_ms: 500,
                slo_tpot_ms: 50,
                threads: 2,
            }),
        ];
        for q in queries {
            let wire = q.to_wire();
            let back = Query::parse_wire(&wire).unwrap_or_else(|e| panic!("{wire}: {e}"));
            assert_eq!(back, q, "{wire}");
        }
    }

    #[test]
    fn defaults_are_omitted_from_the_wire() {
        assert_eq!(
            Query::Search(SearchQuery::default()).to_wire(),
            "llama3sim/1 search"
        );
        assert_eq!(
            Query::Fuzz(FuzzQuery::default()).to_wire(),
            "llama3sim/1 fuzz"
        );
        assert_eq!(
            Query::Infer(InferQuery::default()).to_wire(),
            "llama3sim/1 infer"
        );
        assert_eq!(
            Query::parse_wire("llama3sim/1 search").unwrap(),
            Query::Search(SearchQuery::default())
        );
        assert_eq!(
            Query::parse_wire("llama3sim/1 infer").unwrap(),
            Query::Infer(InferQuery::default())
        );
    }

    #[test]
    fn v1_training_lines_are_byte_identical_under_v2() {
        // The schema bump to v2 is additive: every v1 training line
        // must re-encode to exactly itself. (v4 dropped the no-op
        // `guided` key, so v1 lines carrying it no longer parse.)
        for line in [
            "llama3sim/1 search",
            "llama3sim/1 search model=8b gpus=8 max_cp=2",
            "llama3sim/1 search gpus=8192 zero=zero1,zero3 expect=8,1,16,128",
            "llama3sim/1 trace model=8b gpus=8 seq=4096 horizon=3600 seed=9",
            "llama3sim/1 analyze mode=grid",
            "llama3sim/1 fuzz cases=40 seed=7",
            "llama3sim/1 goodput",
        ] {
            let q = Query::parse_wire(line).unwrap();
            assert_eq!(q.to_wire(), line, "v1 line must survive v2 re-encoding");
        }
        // The workload key is emitted only when non-default.
        let infer_search = Query::Search(SearchQuery {
            workload: Workload::Inference,
            ..SearchQuery::default()
        });
        assert_eq!(infer_search.to_wire(), "llama3sim/1 search workload=infer");
    }

    #[test]
    fn malformed_wire_is_rejected() {
        for bad in [
            "",
            "llama3sim/2 stats",
            "llama3sim/1",
            "llama3sim/1 frobnicate",
            "llama3sim/1 search bogus=1",
            "llama3sim/1 search gpus=x",
            "llama3sim/1 search gpus=8 gpus=8",
            "llama3sim/1 search expect=1,2",
            "llama3sim/1 search zero=zero9",
            "llama3sim/1 search guided=true",
            "llama3sim/1 analyze mode=config",
            "llama3sim/1 analyze mode=what",
            "llama3sim/1 fuzz cases",
            "llama3sim/1 goodput cases=1",
            "llama3sim/1 bench",
            "llama3sim/1 trace mode=zoomy",
            "llama3sim/1 trace window=5",
            "llama3sim/1 trace window=9,3",
            "llama3sim/1 trace zoom=x",
            "llama3sim/1 trace bogus=1",
            "llama3sim/1 search workload=serving",
            "llama3sim/1 infer traffic=nope",
            "llama3sim/1 infer gpus=x",
            "llama3sim/1 infer bogus=1",
            "llama3sim/1 infer rpd=1 rpd=1",
            "llama3sim/1 search expect=1,2,3,4,x",
            "llama3sim/1 trace window=0,x,5",
            "llama3sim/1 search zero=zero1,zero9",
            "llama3sim/1 search gpus=0x",
            "llama3sim/1 search gpus=0x1_0000_0000",
            "llama3sim/1 search gpus=4294967296",
            "llama3sim/1 analyze mode=list config=scaled_405b",
            "llama3sim/1 analyze mode=grid index=3",
            "llama3sim/1 analyze mode=config config=scaled_405b index=3",
            "llama3sim/1 analyze mode=grid_index config=scaled_405b index=3",
            "llama3sim/1 analyze mode=grid_index",
        ] {
            assert!(Query::parse_wire(bad).is_err(), "{bad:?} should not parse");
        }
        // The wall-clock `bench` kind is gone from the wire.
        let bench = Query::parse_wire("llama3sim/1 bench").unwrap_err();
        assert!(
            bench.message.starts_with("unknown query kind"),
            "{}",
            bench.message
        );
    }

    #[test]
    fn a_payload_key_selects_its_analyze_mode() {
        let config = Query::parse_wire("llama3sim/1 analyze config=scaled_405b").unwrap();
        assert_eq!(
            config,
            Query::Analyze(AnalyzeMode::Config("scaled_405b".into()))
        );
        assert_eq!(
            config.to_wire(),
            "llama3sim/1 analyze mode=config config=scaled_405b"
        );
        let index = Query::parse_wire("llama3sim/1 analyze index=3").unwrap();
        assert_eq!(index, Query::Analyze(AnalyzeMode::GridIndex(3)));
        let bare = Query::parse_wire("llama3sim/1 analyze").unwrap();
        assert_eq!(bare, Query::Analyze(AnalyzeMode::Grid));
    }

    #[test]
    fn analyze_flags_share_the_wire_keys() {
        let parse = |list: &[&str]| {
            let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            AnalyzeMode::from_args(&args)
        };
        assert_eq!(parse(&["--list"]), Ok(AnalyzeMode::List));
        assert_eq!(parse(&["--grid"]), Ok(AnalyzeMode::Grid));
        assert_eq!(parse(&[]), Ok(AnalyzeMode::Grid));
        assert_eq!(
            parse(&["--config", "scaled_405b"]),
            Ok(AnalyzeMode::Config("scaled_405b".into()))
        );
        for bad in [
            &["--list", "--grid"][..],
            &["--list", "--config", "scaled_405b"],
            &["--config"],
            &["--index", "3"],
            &["--grid-index"],
            &["--mode", "list"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_accept_hex_and_render_decimal() {
        let q = Query::parse_wire("llama3sim/1 fuzz seed=0xC0FFEE").unwrap();
        assert_eq!(
            q,
            Query::Fuzz(FuzzQuery {
                seed: 0xC0FFEE,
                ..FuzzQuery::default()
            })
        );
        assert_eq!(q.to_wire(), "llama3sim/1 fuzz seed=12648430");
        assert_eq!(parse_num::<u32>("0X10"), Ok(16));
        assert!(parse_num::<u32>("4294967296").is_err());
        assert!(parse_num::<u64>("-1").is_err());
    }

    /// Drives every row of `Q`'s table with its non-default `samples`
    /// value: the wire line is exactly `kind key=value` and parses
    /// back, `--flag value` parses to the same record, and the
    /// canonical hash sees the value unless the key is the `threads`
    /// hint.
    fn check_every_row<Q>(wrap: fn(Q) -> Query, samples: &[(&str, &str)])
    where
        Q: Record + Clone + PartialEq + fmt::Debug,
    {
        for f in Q::FIELDS {
            assert!(
                samples.iter().any(|&(k, _)| k == f.key),
                "{}: no sample for row {}",
                Q::KIND,
                f.key
            );
        }
        let has_threads = Q::FIELDS.iter().any(|f| f.key == "threads");
        for &(key, value) in samples {
            let q = Q::decode(&[(key, value)]).unwrap_or_else(|e| panic!("{key}={value}: {e}"));
            assert_ne!(q, Q::default(), "{key}={value} is the default");
            let wire = wrap(q.clone()).to_wire();
            assert_eq!(wire, format!("{WIRE_MAGIC} {} {key}={value}", Q::KIND));
            assert_eq!(Query::parse_wire(&wire), Ok(wrap(q.clone())), "{wire}");

            let row = Q::FIELDS.iter().find(|f| f.key == key).unwrap();
            let flag = row.flag();
            let args: Vec<String> = match row.arg {
                Arg::Value(_) => vec![flag, value.to_string()],
                Arg::Variants(_) => vec![format!("--{value}")],
                Arg::WireOnly => continue,
            };
            assert_eq!(Q::from_args(&args), Ok(q.clone()), "{args:?}");

            let plain = wrap(q.clone()).canonical_hash();
            let default = wrap(Q::default()).canonical_hash();
            assert_eq!(plain == default, key == "threads", "{key}={value}");
            if has_threads && key != "threads" {
                let hinted = Q::decode(&[(key, value), ("threads", "7")]).unwrap();
                assert_eq!(wrap(hinted).canonical_hash(), plain, "{key}={value}");
            }
        }
    }

    #[test]
    fn every_table_row_round_trips_on_the_wire_and_the_cli() {
        check_every_row(Query::Fuzz, &[("cases", "40"), ("seed", "7")]);
        check_every_row(
            Query::Search,
            &[
                ("model", "8b"),
                ("gpus", "8"),
                ("seq", "4096"),
                ("layers", "4"),
                ("budget", "131072"),
                ("head", "2"),
                ("threads", "3"),
                ("max_cp", "2"),
                ("zero", "zero1,zero3"),
                ("expect", "8,1,16,128"),
                ("workload", "infer"),
            ],
        );
        check_every_row(
            Query::Trace,
            &[
                ("model", "70b"),
                ("gpus", "64"),
                ("seq", "4096"),
                ("horizon", "3600"),
                ("seed", "9"),
                ("tier0", "128"),
                ("window", "100,160"),
                ("zoom", "2"),
                ("mode", "stats"),
                ("mode", "smoke"),
            ],
        );
        check_every_row(
            Query::Infer,
            &[
                ("model", "8b"),
                ("gpus", "16"),
                ("tp", "2"),
                ("pp", "2"),
                ("traffic", "bursty"),
                ("rpd", "50000"),
                ("horizon", "3600"),
                ("seed", "9"),
                ("block", "32"),
                ("batch", "64"),
                ("slo_ttft", "500"),
                ("slo_tpot", "50"),
                ("threads", "2"),
            ],
        );
    }

    #[test]
    fn cli_flags_reject_what_the_wire_rejects() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        for bad in [
            &["--gpus"][..],
            &["--gpus", "x"],
            &["--gpus", "8", "--gpus", "8"],
            &["--max_cp", "2"],
            &["--goodput-head", "2"],
            &["--expect", "1,2,3,4,x"],
            &["--guided"],
            &["gpus=8"],
        ] {
            assert!(
                SearchQuery::from_args(&args(bad)).is_err(),
                "{bad:?} should not parse"
            );
        }
        assert!(TraceQuery::from_args(&args(&["--stats", "--smoke"])).is_err());
        assert!(TraceQuery::from_args(&args(&["--chrome"])).is_err());
        assert!(TraceQuery::from_args(&args(&["--horizon-s", "60"])).is_err());
        assert!(InferQuery::from_args(&args(&["--max-batch", "8"])).is_err());
    }

    #[test]
    fn search_query_resolves_to_the_spec() {
        let q = SearchQuery {
            model: "8b".into(),
            gpus: 8,
            seq: 8192,
            layers: 4,
            budget: 16 * 8192,
            max_cp: 2,
            zero: vec![ZeroMode::Zero1],
            threads: 2,
            goodput_head: 1,
            ..SearchQuery::default()
        };
        let spec = q.to_spec().unwrap();
        assert_eq!(spec.input.ngpu, 8);
        assert_eq!(spec.input.model.num_layers, 4);
        assert_eq!(spec.input.token_budget, 16 * 8192);
        assert_eq!(spec.max_cp, 2);
        assert_eq!(spec.zero_modes, vec![ZeroMode::Zero1]);
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.goodput_head, 1);
        assert!(SearchQuery {
            model: "1t".into(),
            ..SearchQuery::default()
        }
        .to_spec()
        .is_err());
    }

    #[test]
    fn responses_render_and_map_exit_codes() {
        let clean = Response::Fuzz(FuzzResponse {
            cases: 3,
            seed: 0xC0FFEE,
            counterexample: None,
        });
        assert_eq!(clean.exit_code(), 0);
        assert_eq!(
            clean.render_human(),
            "conformance fuzz: 3 cases, seed 0xc0ffee: no counterexamples"
        );
        assert!(clean.render_wire().starts_with("llama3sim/1 ok fuzz\n"));
        let err = Response::render_wire_error(&QueryError::new("nope"));
        assert_eq!(err, "llama3sim/1 err nope\n");

        let list = Response::Analyze(AnalyzeResponse::List(vec![(
            "a".into(),
            "first config".into(),
        )]));
        assert_eq!(list.render_human(), format!("{:<22} first config", "a"));
        assert_eq!(list.exit_code(), 0);

        let stats = Response::Stats(StatsResponse::default());
        assert!(stats.render_human().contains("cost cache"));
        assert!(stats.render_human().contains("pipeline programs"));
    }
}
