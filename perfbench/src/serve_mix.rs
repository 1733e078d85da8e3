//! `serve_mix`: a loopback `Server` (2 workers) over the full-scale
//! `App`, driven by an open-loop generator (2 threads, one keep-alive
//! connection each) with a seeded request mix. Most of the work is in
//! `rdap::server`/`rdap::database` (linear scans) and the
//! `serve::http`/`serve::server` transport; every batch layer behind
//! `/query` and `/experiments` is memoized in setup.
//!
//! Serving is measured in the traced run only (`serve.*`, `server.*`,
//! `app.*`, `rdap.*`, `gen.lag_ms`): it is not a timed workload,
//! because its 4 busy threads on a 2-CPU box follow the box's load
//! more than the code's speed. See `README.md`.

use crate::common::{digest_of, median, note, quantile, secs, timed, Bench, PathProfile, Rng};
use drywells::experiments::build_bgp_study_cached;
use drywells::StudyConfig;
use nettypes::fmt_ipv4;
use nettypes::range::IpRange;
use rdap::server::RdapServer;
use registry::rir::Rir;
use serve::client::{get_once, Client};
use serve::http::Request;
use serve::{App, Server, ServerConfig};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Generator threads, each holding one keep-alive connection.
const CONNECTIONS: usize = 2;
/// The fixed reference rate (requests/s) and how long it is offered.
const REFERENCE_RPS: f64 = 250.0;
const REFERENCE_SECS: f64 = 6.0;
/// Latency limit: on p99 for a rate to count as sustained, and on
/// every request at the reference rate for it to count as served.
/// The shared 2-CPU reference box stalls a process for over 100 ms
/// now and then, so the limit sits above such stalls.
const LIMIT_MS: f64 = 250.0;
/// Attempts at a valid reference step before the run fails.
const REFERENCE_ATTEMPTS: usize = 3;
/// Rates above the reference tried for `serve_max_rps`, as multiples
/// of it, each offered for `STEP_SECS`.
const LADDER: [f64; 5] = [2.0, 3.0, 4.0, 6.0, 8.0];
const STEP_SECS: f64 = 1.0;
/// Experiment CSVs in the mix (memoized during setup).
const EXPERIMENTS: [&str; 2] = ["fig2", "fig5"];
const QUERY_LIMIT: usize = 100;
/// Targets sampled per request class.
const SAMPLES: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    RdapHit,
    RdapPrefix,
    RdapMiss,
    Feed,
    Query,
    Experiment,
    Health,
}

/// The mix, in requests per thousand. RDAP lookups dominate, as in
/// address-attribution use, and most of them hit a real object. The
/// slowest class, `/query` (tens of ms on days with a RIB file), stays
/// at 0.5% and the next slowest, transfer feeds, at 4%, so p99 falls
/// inside the feed class instead of on a class boundary.
const MIX: [(Class, u32); 7] = [
    (Class::RdapHit, 725),
    (Class::RdapPrefix, 100),
    (Class::RdapMiss, 80),
    (Class::Feed, 40),
    (Class::Query, 5),
    (Class::Experiment, 20),
    (Class::Health, 30),
];

/// Route labels, as `App::handle_labeled` names them.
const ROUTES: [&str; 5] = ["rdap", "query", "feed", "experiments", "probe"];

impl Class {
    fn route(self) -> &'static str {
        match self {
            Class::RdapHit | Class::RdapPrefix | Class::RdapMiss => "rdap",
            Class::Feed => "feed",
            Class::Query => "query",
            Class::Experiment => "experiments",
            Class::Health => "probe",
        }
    }
}

/// What a correct answer looks like.
enum Expect {
    /// 200 naming this RDAP handle.
    Handle(String),
    /// 404.
    NotFound,
    /// 200 with exactly this body (by digest).
    Body(u64),
}

struct Target {
    class: Class,
    path: String,
    expect: Expect,
    /// The RDAP lookup key, for the in-process probes.
    key: Option<IpRange>,
}

fn verify(t: &Target, status: u16, body: &[u8]) -> bool {
    match &t.expect {
        Expect::Handle(h) => {
            status == 200
                && serde_json::parse(&String::from_utf8_lossy(body))
                    .ok()
                    .and_then(|v| v.get("handle").and_then(|x| x.as_str().map(str::to_string)))
                    .as_deref()
                    == Some(h.as_str())
        }
        Expect::NotFound => status == 404,
        Expect::Body(d) => status == 200 && digest_of(&body) == *d,
    }
}

/// A running server plus the targets sampled from its world. Dropping
/// it drains and joins the server.
struct Served {
    server: Option<Server>,
    pools: Vec<(Class, Vec<Target>)>,
}

impl Served {
    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }

    fn addr(&self) -> SocketAddr {
        self.server().http_addr()
    }

    fn pool(&self, class: Class) -> &[Target] {
        &self
            .pools
            .iter()
            .find(|(c, _)| *c == class)
            .expect("every class sampled")
            .1
    }

    /// `n` targets in a seeded order, with each class's count fixed by
    /// the mix shares (largest remainder). Fixed counts keep the batch's
    /// make-up, and so its cost, the same across seeds.
    fn plan(&self, n: usize, rng: &mut Rng) -> Vec<&Target> {
        let total: usize = MIX.iter().map(|(_, w)| *w as usize).sum();
        let mut counts: Vec<(usize, Class, usize)> = MIX
            .iter()
            .map(|&(c, w)| (n * w as usize % total, c, n * w as usize / total))
            .collect();
        let short = n - counts.iter().map(|(_, _, k)| k).sum::<usize>();
        counts.sort_by_key(|e| std::cmp::Reverse(e.0));
        for entry in counts.iter_mut().take(short) {
            entry.2 += 1;
        }
        let mut classes: Vec<Class> = counts
            .iter()
            .flat_map(|&(_, c, k)| std::iter::repeat_n(c, k))
            .collect();
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        classes
            .into_iter()
            .map(|c| rng.pick(self.pool(c)))
            .collect()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

fn fetch_digest(addr: SocketAddr, path: &str) -> Result<u64, String> {
    let r =
        get_once(addr, path, Duration::from_secs(60)).map_err(|e| format!("GET {path}: {e}"))?;
    if r.status != 200 || r.body.is_empty() {
        return Err(format!(
            "GET {path}: status {} with {} body bytes",
            r.status,
            r.body.len()
        ));
    }
    Ok(digest_of(&r.body))
}

/// Sample every request class from the served world.
fn sample(app: &App, addr: SocketAddr, seed: u64) -> Result<Vec<(Class, Vec<Target>)>, String> {
    let mut rng = Rng::new(seed, 2);
    let objs = app.whois_db().objects();
    // Smallest containing object, first on ties: the `/rdap/ip/{addr}`
    // answer.
    let owner = |a: u32| {
        objs.iter()
            .filter(|o| o.range.contains_address(a))
            .min_by_key(|o| o.num_addresses())
    };
    let ip = |class, a: u32, expect| Target {
        class,
        path: format!("/rdap/ip/{}", fmt_ipv4(a)),
        expect,
        key: Some(IpRange::new(a, a).expect("one-address range")),
    };

    let hits = (0..SAMPLES)
        .map(|_| {
            let o = rng.pick(objs);
            let a = o.range.start() + rng.below(o.num_addresses()) as u32;
            let handle = owner(a)
                .expect("the sampled object contains the address")
                .handle();
            ip(Class::RdapHit, a, Expect::Handle(handle))
        })
        .collect();
    let cidrs: Vec<_> = objs
        .iter()
        .filter_map(|o| o.range.as_single_prefix())
        .collect();
    let prefixes = (0..SAMPLES)
        .map(|_| {
            let p = *rng.pick(&cidrs);
            let range = IpRange::from_prefix(p);
            let exact = objs
                .iter()
                .find(|o| o.range == range)
                .expect("sampled from the objects");
            Target {
                class: Class::RdapPrefix,
                path: format!("/rdap/ip/{}/{}", fmt_ipv4(p.network()), p.len()),
                expect: Expect::Handle(exact.handle()),
                key: Some(range),
            }
        })
        .collect();
    let mut misses = Vec::with_capacity(SAMPLES);
    while misses.len() < SAMPLES {
        let a = rng.next_u64() as u32;
        if owner(a).is_none() {
            misses.push(ip(Class::RdapMiss, a, Expect::NotFound));
        }
    }
    let body = |class, path: String| -> Result<Target, String> {
        Ok(Target {
            class,
            expect: Expect::Body(fetch_digest(addr, &path)?),
            path,
            key: None,
        })
    };
    let feeds = Rir::ALL
        .iter()
        .map(|r| body(Class::Feed, format!("/feed/transfers/{}.json", r.label())))
        .collect::<Result<_, _>>()?;
    let experiments = EXPERIMENTS
        .iter()
        .map(|id| body(Class::Experiment, format!("/experiments/{id}.csv")))
        .collect::<Result<_, _>>()?;
    // One-day windows; the first fetch builds the `/query` archive memo.
    let span = app_span();
    let queries = (0..SAMPLES / 8)
        .map(|_| {
            let day = span.0 + rng.below((span.1 - span.0 + 1) as u64) as i64;
            body(
                Class::Query,
                format!("/query?filter=days%3D{day}&limit={QUERY_LIMIT}"),
            )
        })
        .collect::<Result<_, _>>()?;
    let health = vec![body(Class::Health, "/healthz".into())?];
    Ok(vec![
        (Class::RdapHit, hits),
        (Class::RdapPrefix, prefixes),
        (Class::RdapMiss, misses),
        (Class::Feed, feeds),
        (Class::Query, queries),
        (Class::Experiment, experiments),
        (Class::Health, health),
    ])
}

/// The study window the served archive covers.
fn app_span() -> (nettypes::date::Date, nettypes::date::Date) {
    let span = StudyConfig::full().world.span;
    (span.start, span.end)
}

/// Build the App (rate limiter off: all load comes from one address),
/// start the server and warm its memos. `App::from_study` reads the
/// study cache the caller filled beforehand.
fn start_served(config: &StudyConfig, seed: u64) -> Result<Served, String> {
    let app = App::from_study(config, None);
    // Fill the `/query` archive memo and the experiment CSV memos in
    // process, before the server starts, so no timed request builds
    // them.
    let localhost = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let warm = std::iter::once(format!("/query?filter=days%3D{}&limit=1", app_span().0)).chain(
        EXPERIMENTS
            .iter()
            .map(|id| format!("/experiments/{id}.csv")),
    );
    for path in warm {
        let status = app.handle(&probe_request(&path), localhost).status;
        if status != 200 {
            return Err(format!("warm-up GET {path} answered {status}"));
        }
    }
    let server = Server::start(
        app,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start failed: {e}"))?;
    let mut served = Served {
        server: Some(server),
        pools: Vec::new(),
    };
    served.pools = sample(served.server().app(), served.addr(), seed)?;
    Ok(served)
}

struct Sample {
    /// Position in the plan (the send schedule).
    index: usize,
    class: Class,
    /// From when the request was due to the end of its response.
    due_ms: f64,
    /// From when it was sent to the end of its response.
    sent_ms: f64,
    ok: bool,
    /// How late the thread woke for it (`None`: it was already due).
    wake_lag_ms: Option<f64>,
    /// Due-but-unsent requests when it was taken, itself included.
    backlog: usize,
}

struct Step {
    rate: f64,
    samples: Vec<Sample>,
    wall_s: f64,
    queued_max: usize,
    in_flight_max: usize,
}

impl Step {
    fn due_ms(&self, route: Option<&str>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| route.is_none_or(|r| s.class.route() == r))
            .map(|s| s.due_ms)
            .collect()
    }

    fn p50_ms(&self) -> f64 {
        median(&self.due_ms(None))
    }

    fn p99_ms(&self) -> f64 {
        quantile(&self.due_ms(None), 0.99)
    }

    fn gen_lag_ms(&self) -> f64 {
        let lags: Vec<f64> = self.samples.iter().filter_map(|s| s.wake_lag_ms).collect();
        quantile(&lags, 0.99)
    }

    /// Mean due-but-unsent queue over the last quarter of the step.
    fn late_backlog(&self) -> f64 {
        let tail = &self.samples[self.samples.len() * 3 / 4..];
        tail.iter().map(|s| s.backlog as f64).sum::<f64>() / tail.len().max(1) as f64
    }

    /// The generator kept its schedule: its due-but-unsent queue did
    /// not grow (the last quarter's mean stays within two requests
    /// per connection). A step that fell behind offered less load
    /// than nominal, so it is invalid, not fast.
    fn valid(&self) -> bool {
        self.late_backlog() <= 2.0 * CONNECTIONS as f64
    }

    /// Valid, p99 within the limit, every answer correct.
    fn sustained(&self) -> bool {
        self.valid() && self.p99_ms() <= LIMIT_MS && self.samples.iter().all(|s| s.ok)
    }

    fn describe(&self) -> String {
        format!(
            "{} req/s: n={} p50 {:.3} ms p99 {:.3} ms gen lag p99 {:.3} ms late backlog {:.2} wall {:.3} s",
            self.rate,
            self.samples.len(),
            self.p50_ms(),
            self.p99_ms(),
            self.gen_lag_ms(),
            self.late_backlog(),
            self.wall_s
        )
    }
}

/// Send `plan` over `CONNECTIONS` keep-alive connections on a fixed
/// schedule at `rate` (open loop).
fn drive(served: &Served, plan: &[&Target], rate: f64) -> Step {
    let addr = served.addr();
    let pool = &served.server().app().pool;
    let next = AtomicUsize::new(0);
    let queued_max = AtomicUsize::new(0);
    let in_flight_max = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(5);
    let (per_thread, wall_s) = timed(|| {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|_| {
                    s.spawn(|| {
                        let mut client = Client::new(addr, Duration::from_secs(30));
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(t) = plan.get(i) else { break };
                            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                            let now = Instant::now();
                            let wake_lag_ms = (now < due).then(|| {
                                std::thread::sleep(due - now);
                                secs(Instant::now() - due) * 1e3
                            });
                            let sent = Instant::now();
                            let backlog = ((secs(sent.saturating_duration_since(t0)) * rate)
                                as usize
                                + 1)
                            .saturating_sub(i);
                            queued_max
                                .fetch_max(pool.queued.load(Ordering::Relaxed), Ordering::Relaxed);
                            in_flight_max.fetch_max(
                                pool.in_flight.load(Ordering::Relaxed),
                                Ordering::Relaxed,
                            );
                            let ok = match client.get(&t.path) {
                                Ok(r) => {
                                    let ok = verify(t, r.status, &r.body);
                                    if !ok {
                                        eprintln!(
                                            "perfbench: wrong answer ({}) for {}",
                                            r.status, t.path
                                        );
                                    }
                                    ok
                                }
                                Err(e) => {
                                    eprintln!("perfbench: GET {} failed: {e}", t.path);
                                    false
                                }
                            };
                            let done = Instant::now();
                            out.push(Sample {
                                index: i,
                                class: t.class,
                                due_ms: secs(done - due.min(sent)) * 1e3,
                                sent_ms: secs(done - sent) * 1e3,
                                ok,
                                wake_lag_ms,
                                backlog,
                            });
                        }
                        out
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("generator thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    Step {
        rate,
        samples,
        wall_s,
        queued_max: queued_max.into_inner(),
        in_flight_max: in_flight_max.into_inner(),
    }
}

/// Tally a step: every answer is an output check; at the reference
/// rate a request past the latency limit also counts as failed.
fn account(b: &mut Bench, step: &Step, reference: bool) {
    for s in &step.samples {
        if s.ok {
            let in_time = !reference || s.due_ms <= LIMIT_MS;
            if !in_time {
                eprintln!(
                    "perfbench: {:?} request #{} took {:.1} ms, over the limit",
                    s.class, s.index, s.due_ms
                );
            }
            b.op(in_time);
        } else {
            b.check(false, || {
                format!(
                    "{:?} request #{} answered wrongly or not at all",
                    s.class, s.index
                )
            });
        }
    }
    if reference {
        b.check(step.valid(), || {
            format!("generator fell behind its schedule: {}", step.describe())
        });
    }
}

fn rdap_hit_ratio(step: &Step) -> f64 {
    let rdap: Vec<&Sample> = step
        .samples
        .iter()
        .filter(|s| s.class.route() == "rdap")
        .collect();
    let hits = rdap
        .iter()
        .filter(|s| s.class != Class::RdapMiss && s.ok)
        .count();
    hits as f64 / rdap.len().max(1) as f64
}

/// The reference rate, offered again (same plan) while the generator
/// falls behind, up to `REFERENCE_ATTEMPTS` times.
fn reference_step(served: &Served, seed: u64) -> Step {
    let plan = served.plan(
        (REFERENCE_RPS * REFERENCE_SECS) as usize,
        &mut Rng::new(seed, 3),
    );
    let mut step = drive(served, &plan, REFERENCE_RPS);
    for _ in 1..REFERENCE_ATTEMPTS {
        if step.valid() {
            break;
        }
        note(&format!(
            "reference step invalid, offered again: {}",
            step.describe()
        ));
        step = drive(served, &plan, REFERENCE_RPS);
    }
    step
}

/// Climb the ladder until a rate is not sustained; the highest
/// sustained rate (0 when even the reference fails).
fn max_rps(b: &mut Bench, served: &Served, reference: &Step, seed: u64) -> f64 {
    if !reference.sustained() {
        return 0.0;
    }
    let mut best = REFERENCE_RPS;
    let mut rng = Rng::new(seed, 5);
    for m in LADDER {
        let rate = REFERENCE_RPS * m;
        let plan = served.plan((rate * STEP_SECS) as usize, &mut rng);
        let step = drive(served, &plan, rate);
        note(&format!("ladder {}", step.describe()));
        account(b, &step, false);
        if !step.sustained() {
            break;
        }
        best = rate;
    }
    best
}

fn probe_request(path: &str) -> Request {
    Request {
        method: "GET".into(),
        target: path.into(),
        version: "HTTP/1.1".into(),
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// The traced run's serving layers: setup, the RDAP and `App::handle`
/// layers in process, and the reference step over TCP, all traced;
/// then the rate ladder untraced.
pub fn trace(b: &mut Bench, profile: &Arc<PathProfile>) -> Result<(), String> {
    let config = StudyConfig::full();
    build_bgp_study_cached(&config);
    let guard = obs::subscribe(profile.clone());
    let served = start_served(&config, b.seed)?;
    // RDAP layer, in process, on a copy of the served database.
    let db = served.server().app().whois_db().clone();
    let rdap = RdapServer::new(db.clone());
    let mut rng = Rng::new(b.seed, 6);
    for t in served.pool(Class::RdapHit) {
        let _s = obs::span!("rdap.query_ip_hit");
        b.check(rdap.query_ip(t.key.expect("keyed").start()).is_ok(), || {
            format!("in-process miss for {}", t.path)
        });
    }
    for t in served.pool(Class::RdapMiss) {
        let _s = obs::span!("rdap.query_ip_miss");
        b.check(
            rdap.query_ip(t.key.expect("keyed").start()).is_err(),
            || format!("in-process hit for {}", t.path),
        );
    }
    for t in served.pool(Class::RdapPrefix) {
        let _s = obs::span!("rdap.query_prefix");
        b.check(rdap.query(t.key.expect("keyed")).is_ok(), || {
            format!("in-process miss for {}", t.path)
        });
    }
    for _ in 0..SAMPLES {
        let range = rng.pick(db.objects()).range;
        let _s = obs::span!("rdap.parent_of");
        std::hint::black_box(db.parent_of(range));
    }
    // App::handle, in process, per route.
    let app = served.server().app();
    let client = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut handle_us: Vec<(&str, Vec<f64>)> = ROUTES.iter().map(|r| (*r, Vec::new())).collect();
    for (class, targets) in &served.pools {
        for t in targets.iter().take(64) {
            let req = probe_request(&t.path);
            let (resp, wall) = timed(|| {
                let _s = match class.route() {
                    "rdap" => obs::span!("app.handle_rdap"),
                    "query" => obs::span!("app.handle_query"),
                    "feed" => obs::span!("app.handle_feed"),
                    "experiments" => obs::span!("app.handle_experiments"),
                    _ => obs::span!("app.handle_probe"),
                };
                app.handle(&req, client)
            });
            b.check(verify(t, resp.status, &resp.body), || {
                format!("in-process answer wrong for {}", t.path)
            });
            let route = class.route();
            handle_us
                .iter_mut()
                .find(|(r, _)| *r == route)
                .expect("known route")
                .1
                .push(wall * 1e6);
        }
    }
    let traced = reference_step(&served, b.seed);
    account(b, &traced, true);
    drop(guard);
    let best = max_rps(b, &served, &traced, b.seed);
    let shed_total = app.pool.shed_total.load(Ordering::Relaxed);
    note(&format!("traced reference {}", traced.describe()));
    let mean_us = |name: &str| {
        let s = profile.leaf(name);
        secs(s.total) * 1e6 / s.count.max(1) as f64
    };
    b.metric("rdap.objects", db.len() as f64);
    b.metric("rdap.hit_ratio", rdap_hit_ratio(&traced));
    b.metric("rdap.query_ip_hit_us", mean_us("rdap.query_ip_hit"));
    b.metric("rdap.query_ip_miss_us", mean_us("rdap.query_ip_miss"));
    b.metric("rdap.query_prefix_us", mean_us("rdap.query_prefix"));
    b.metric("rdap.parent_of_us", mean_us("rdap.parent_of"));
    for (route, walls) in &handle_us {
        let handle = median(walls);
        let sent: Vec<f64> = traced
            .samples
            .iter()
            .filter(|s| s.class.route() == *route)
            .map(|s| s.sent_ms * 1e3)
            .collect();
        let due = traced.due_ms(Some(route));
        b.metric(&format!("app.handle_{route}_us"), handle);
        b.metric(
            &format!("server.transport_{route}_us"),
            median(&sent) - handle,
        );
        b.metric(&format!("serve.{route}_p50_ms"), median(&due));
        b.metric(&format!("serve.{route}_p99_ms"), quantile(&due, 0.99));
    }
    b.metric("server.queued_max", traced.queued_max as f64);
    b.metric("server.in_flight_max", traced.in_flight_max as f64);
    b.metric("server.shed_total", shed_total as f64);
    b.metric("serve.p99_ms", traced.p99_ms());
    b.metric("serve.max_rps", best);
    b.metric("gen.lag_ms", traced.gen_lag_ms());
    Ok(())
}
