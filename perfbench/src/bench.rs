//! What every workload shares: arguments, the span tracer, percentile
//! helpers, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every layer a span can be charged to. `bench` is the benchmark's own
/// code between calls; the rest are the workspace crates it calls. The
/// daemon's own parse and decode fall inside `served` (its reported
/// compute time), so `http` and `api` have no self time of their own.
pub const LAYERS: [&str; 10] = [
    "bench", "sched", "core", "powersim", "harness", "analyze", "verify", "wcec", "served", "store",
];

/// A workload repeats its set-up at least this many times, and for at
/// least [`SETUP_MIN_S`] in all; `setup_s` is the median. On the 2-vCPU
/// reference VM the speed of a millisecond set-up steps by up to 40 %
/// every few hundred milliseconds, so the median of half a second of
/// set-ups still moved by a quarter from run to run; two seconds span
/// enough of those steps.
pub const SETUP_MIN_REPS: usize = 9;
pub const SETUP_MIN_S: f64 = 2.0;

/// Whether the set-up times so far are enough for `setup_s`.
pub fn setup_done(times_s: &[f64]) -> bool {
    times_s.len() >= SETUP_MIN_REPS && times_s.iter().sum::<f64>() >= SETUP_MIN_S
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --trace 0|1`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Traced runs alternate: even rounds run untraced (the overhead
    /// baseline), odd rounds traced, so both see the same warm-up and
    /// machine state.
    pub fn traced_round(&self, round: u64) -> bool {
        self.trace && round % 2 == 1
    }

    /// Rounds a run makes at least: one, or one of each kind when traced.
    pub fn min_rounds(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// One recorded span. `op` is the trial, load, pass or request the span
/// belongs to; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span is charged to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            on: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.ns(Instant::now());
        if let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }

    /// Records a finished span nested in the innermost open one (spans
    /// whose interval was measured elsewhere). Returns its index.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) -> usize {
        self.record_under(name, op, self.open.last().copied(), start, end)
    }

    /// Records a finished span under an explicit parent.
    pub fn record_under(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Moves another tracer's spans in (one per client thread), keeping
    /// their parent links. Returns the index its first span now has.
    pub fn absorb(&mut self, other: Tracer) -> usize {
        let base = self.spans.len();
        append(&mut self.spans, other.spans);
        base
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` to `spans`, shifting its parent links.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Durations, in nanoseconds, of every span called `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer.
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
        *out.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(covered) as f64;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Writes spans as JSON lines to `path`, replacing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed, by kind (trials, loads,
    /// requests by endpoint…), in a stable order.
    pub accounting: BTreeMap<String, (u64, u64)>,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Operations that failed through a known fault of the program, one
    /// line each; counted in `failed`, not in `problems`.
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn count(&mut self, kind: &str, attempted: u64, failed: u64) {
        let e = self.accounting.entry(kind.to_string()).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn check(&mut self, ok: Result<(), String>) {
        if let Err(e) = ok {
            // Keep the report readable when one fault repeats.
            if self.problems.len() < 50 {
                self.problems.push(e);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.accounting.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.accounting.values().map(|c| c.1).sum()
    }

    /// Adds the per-layer self time per operation, from the spans of the
    /// traced rounds, and the tracing overhead.
    pub fn trace_metrics(
        &mut self,
        ops_traced: u64,
        untraced_ops_per_s: f64,
        traced_ops_per_s: f64,
    ) {
        let ops = ops_traced.max(1) as f64;
        let spans = std::mem::take(&mut self.spans);
        let self_ns = self_time_ns(&spans);
        for layer in LAYERS {
            let ns = self_ns.get(layer).copied().unwrap_or(0.0);
            self.metric(format!("self_ms_per_op.{layer}"), ns / ops / 1e6, "ms");
        }
        self.metric("trace.spans", spans.len() as f64, "count");
        self.metric(
            "trace.overhead_pct",
            (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s * 100.0,
            "%",
        );
        self.spans = spans;
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                value,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted(),
            self.failed()
        )
    }
}

/// A scratch directory under `.bench_out/` in the working directory,
/// removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = std::env::current_dir()?
            .join(".bench_out")
            .join(format!("scratch-{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
