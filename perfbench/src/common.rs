//! Shared machinery: arguments, the result tally, timing statistics,
//! seeded sampling, output digests, the run stamp and the span
//! profile of the traced run.

use obs::{EventRecord, SpanCloseRecord, SpanOpenRecord, Subscriber};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Each workload maps its own job onto `work_s` and `op_ms`; see
/// `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_s", "s"),
    ("op_ms", "ms"),
];

/// Per-layer metrics, reported with `--trace 1`. The traced run calls
/// every layer, whatever the workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.world_generate_ms", "ms"),
    ("observe.render_days_ms", "ms"),
    ("registry.simulate_ms", "ms"),
    ("engine.seed_state_ms", "ms"),
    ("engine.advance_state_ms", "ms"),
    ("engine.sel_changes", "count"),
    ("updates.rib_bytes", "bytes"),
    ("updates.update_bytes", "bytes"),
    ("updates.encode_mb_per_s", "MB/s"),
    ("sweep.rib_day_ms", "ms"),
    ("sweep.update_day_ms", "ms"),
    ("sweep.full_rebuilds", "count"),
    ("sweep.changed_prefixes", "count"),
    ("mrt2.decode_ms", "ms"),
    ("mrt2.decode_mb_per_s", "MB/s"),
    ("mrt2.records", "count"),
    ("query.scan.elems_scanned", "count"),
    ("query.scan.rows_matched", "count"),
    ("query.scan.match_ratio", "ratio"),
    ("query.scan.files_pruned", "count"),
    ("query.scan.elems_per_s", "1/s"),
    ("query.selective.elems_scanned", "count"),
    ("query.selective.rows_matched", "count"),
    ("query.selective.match_ratio", "ratio"),
    ("query.selective.files_pruned", "count"),
    ("query.selective.elems_per_s", "1/s"),
    ("base.infer_ms", "ms"),
    ("base.routes", "count"),
    ("base.delegations", "count"),
    ("extensions.consistency_fill_ms", "ms"),
    ("pipeline.days_ms", "ms"),
    ("pipeline.mrt_baseline_ms", "ms"),
    ("pipeline.mrt_extended_ms", "ms"),
    ("par.infer_speedup_2t", "ratio"),
    ("experiments.table1_ms", "ms"),
    ("experiments.s2_waitlists_ms", "ms"),
    ("experiments.fig1_ms", "ms"),
    ("experiments.fig2_ms", "ms"),
    ("experiments.fig3_ms", "ms"),
    ("experiments.fig4_ms", "ms"),
    ("experiments.fig5_ms", "ms"),
    ("experiments.fig6_ms", "ms"),
    ("experiments.s4_coverage_ms", "ms"),
    ("experiments.s5_prediction_ms", "ms"),
    ("experiments.s6_amortization_ms", "ms"),
    ("experiments.s6_behavior_ms", "ms"),
    ("experiments.s7_combined_ms", "ms"),
    ("experiments.sensitivity_ms", "ms"),
    ("rdap.objects", "count"),
    ("rdap.hit_ratio", "ratio"),
    ("rdap.query_ip_hit_us", "us"),
    ("rdap.query_ip_miss_us", "us"),
    ("rdap.query_prefix_us", "us"),
    ("rdap.parent_of_us", "us"),
    ("app.handle_rdap_us", "us"),
    ("app.handle_query_us", "us"),
    ("app.handle_feed_us", "us"),
    ("app.handle_experiments_us", "us"),
    ("app.handle_probe_us", "us"),
    ("server.transport_rdap_us", "us"),
    ("server.transport_query_us", "us"),
    ("server.transport_feed_us", "us"),
    ("server.transport_experiments_us", "us"),
    ("server.transport_probe_us", "us"),
    ("server.queued_max", "count"),
    ("server.in_flight_max", "count"),
    ("server.shed_total", "count"),
    ("serve.rdap_p50_ms", "ms"),
    ("serve.rdap_p99_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p99_ms", "ms"),
    ("serve.feed_p50_ms", "ms"),
    ("serve.feed_p99_ms", "ms"),
    ("serve.experiments_p50_ms", "ms"),
    ("serve.experiments_p99_ms", "ms"),
    ("serve.probe_p50_ms", "ms"),
    ("serve.probe_p99_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("gen.lag_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("want 0 < seconds <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("want 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One run's state: the time budget, the operation tally and the
/// metrics collected so far.
pub struct Bench {
    pub seed: u64,
    pub trace: bool,
    budget: Duration,
    timed_start: Option<Instant>,
    pub attempted: u64,
    pub failed: u64,
    /// Set when an output check fails (as opposed to, say, a request
    /// that answered correctly but missed its latency limit).
    pub wrong_output: bool,
    metrics: BTreeMap<&'static str, f64>,
}

impl Bench {
    pub fn new(args: &Args) -> Bench {
        Bench {
            seed: args.seed,
            trace: args.trace,
            budget: Duration::from_secs_f64(args.seconds),
            timed_start: None,
            attempted: 0,
            failed: 0,
            wrong_output: false,
            metrics: BTreeMap::new(),
        }
    }

    /// Record one operation whose output check passed or failed. A
    /// failed check is reported on stderr and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong_output = true;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Record one operation that completed correctly but may still
    /// count as failed (a request past its latency limit).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        let (name, _) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in this mode's table"));
        self.metrics.insert(name, value);
    }

    /// Start the timed phase: the `--seconds` budget counts from here.
    pub fn start_timed(&mut self) {
        self.timed_start = Some(Instant::now());
    }

    /// Whether another repetition fits: always while fewer than `min`
    /// ran, never once `max` ran, otherwise while the middle of one
    /// more repetition of the mean length so far falls within the
    /// budget. The timed phase then lasts `--seconds` on average,
    /// however long a repetition is.
    pub fn more(&self, done: usize, min: usize, max: usize) -> bool {
        let elapsed = secs(self.timed_start.expect("start_timed before more").elapsed());
        let next_middle = elapsed + elapsed / done.max(1) as f64 / 2.0;
        done < min || (done < max && next_middle <= secs(self.budget))
    }

    /// Build the workload's inputs at least twice, and more while the
    /// builds took under `SETUP_SECS` together (at most `SETUP_MAX`
    /// times); report the median as `setup_s` and keep the last build.
    /// Cheap setups get many samples, so their median holds still.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        const SETUP_SECS: f64 = 1.5;
        const SETUP_MAX: usize = 15;
        let mut walls: Vec<f64> = Vec::new();
        let mut kept = None;
        while walls.len() < 2 || (walls.len() < SETUP_MAX && walls.iter().sum::<f64>() < SETUP_SECS)
        {
            drop(kept.take());
            let t0 = Instant::now();
            kept = Some(build()?);
            walls.push(t0.elapsed().as_secs_f64());
        }
        note(&format!(
            "setup_s {} s (median of {walls:?})",
            median(&walls)
        ));
        if !self.trace {
            self.metric("setup_s", median(&walls));
        }
        Ok(kept.expect("at least one setup ran"))
    }

    /// Print the result: the last line of stdout, one JSON object with
    /// every metric of this mode's table. A metric the workload did not
    /// produce, or a ratio over nothing, reads 0.
    pub fn finish(mut self) {
        if !self.trace {
            self.metric("peak_rss_mb", peak_rss_mb());
        }
        let table = if self.trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            !self.wrong_output && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

/// A human-readable report line (stdout, before the JSON result).
pub fn note(line: &str) {
    println!("# {line}");
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The process high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the workload seed's only consumer.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// FNV-1a over everything hashed into it: the output digest compared
/// across repetitions and worker counts.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

pub fn digest_of(x: &impl Hash) -> u64 {
    let mut d = Digest::default();
    x.hash(&mut d);
    d.finish()
}

/// The machine and run details every result carries.
pub fn stamp(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workers = std::env::var("DRYWELLS_THREADS").unwrap_or_else(|_| "unset".into());
    note(&format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers={workers} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        env!("PERFBENCH_RUSTC"),
        commit()
    ));
}

/// The checked-out commit, read from `.git` when the tree has one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Per-call-path span aggregate.
#[derive(Clone, Copy, Default)]
pub struct PathStats {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
    pub max: Duration,
}

#[derive(Default)]
struct ProfileState {
    /// Open spans: id → (call path, parent id, wall of closed children).
    open: HashMap<u64, (String, Option<u64>, Duration)>,
    paths: BTreeMap<String, PathStats>,
}

/// The traced run's subscriber: aggregates every closed span by call
/// path (`root/child/leaf`) into count, total, self time and max, and
/// keeps nothing per span instance, so spans inside per-day loops cost
/// one map update each. `obs::ProfileCollector` keeps one node per
/// span instance and has no per-path view.
#[derive(Default)]
pub struct PathProfile {
    state: Mutex<ProfileState>,
}

impl PathProfile {
    /// Aggregates of every path whose leaf span is `name`, summed.
    pub fn leaf(&self, name: &str) -> PathStats {
        let state = self.state.lock().expect("path profile poisoned");
        let mut out = PathStats::default();
        for (path, s) in &state.paths {
            if path.rsplit('/').next() == Some(name) {
                out.count += s.count;
                out.total += s.total;
                out.self_time += s.self_time;
                out.max = out.max.max(s.max);
            }
        }
        out
    }

    pub fn leaf_ms(&self, name: &str) -> f64 {
        secs(self.leaf(name).total) * 1e3
    }

    /// The aggregate table, one line per call path.
    pub fn print(&self) {
        let state = self.state.lock().expect("path profile poisoned");
        note("span profile: path | count | total ms | self ms | max ms");
        for (path, s) in &state.paths {
            note(&format!(
                "  {path} | {} | {:.3} | {:.3} | {:.3}",
                s.count,
                secs(s.total) * 1e3,
                secs(s.self_time) * 1e3,
                secs(s.max) * 1e3
            ));
        }
    }
}

impl Subscriber for PathProfile {
    fn span_open(&self, r: &SpanOpenRecord<'_>) {
        let mut state = self.state.lock().expect("path profile poisoned");
        let path = match r.parent.and_then(|p| state.open.get(&p)) {
            Some((parent, _, _)) => format!("{parent}/{}", r.name),
            None => r.name.to_string(),
        };
        state.open.insert(r.id, (path, r.parent, Duration::ZERO));
    }

    fn span_close(&self, r: &SpanCloseRecord) {
        let mut state = self.state.lock().expect("path profile poisoned");
        let Some((path, parent, children)) = state.open.remove(&r.id) else {
            return;
        };
        if let Some(p) = parent.and_then(|p| state.open.get_mut(&p)) {
            p.2 += r.wall;
        }
        let s = state.paths.entry(path).or_default();
        s.count += 1;
        s.total += r.wall;
        s.self_time += r.wall.saturating_sub(children);
        s.max = s.max.max(r.wall);
    }

    fn event(&self, _: &EventRecord<'_>) {}
}
