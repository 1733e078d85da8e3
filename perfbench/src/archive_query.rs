//! `archive_query`: one closed-loop client (one worker) runs a seeded
//! query sequence over the full-scale archive: the broad
//! `kind=announce|withdraw` scan plus selective queries whose clause
//! values come from the world. Most of the work is in `bgpsim::query`
//! (filter, format) and `bgpsim::mrt2` (decode); encoding happens only
//! in setup.
//!
//! End-to-end mapping: `work_s` = one whole sequence; `op_ms` = the
//! median selective query (`query_selective_ms`).

use crate::common::{digest_of, median, note, secs, timed, Bench, PathProfile, Rng};
use crate::mrt_pipeline::{build_world, encode};
use bgpsim::query::{
    files_from_archive_v2, run_query, Filter, QueryFile, QueryOptions, QueryStats,
};
use bgpsim::scenario::LeaseWorld;
use bgpsim::updates::CollectorArchiveV2;
use drywells::StudyConfig;
use std::sync::Arc;

/// The broad full-archive scan.
const SCAN: &str = "kind=announce|withdraw";

struct Query {
    filter: String,
    selective: bool,
}

/// The seeded sequence: the broad scan, then selective queries with
/// clause values sampled from the world. Four of the five selective
/// queries must decode the whole archive, so their median is the
/// decode-bound case; the day-window query shows day pruning.
fn sample_queries(world: &LeaseWorld, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed, 1);
    let origins: Vec<u32> = world
        .leases
        .iter()
        .filter(|l| l.announced)
        .map(|l| l.delegatee_asn.0)
        .collect();
    let mut alloc = || rng.pick(&world.allocations).prefix;
    let (a1, a2, a3) = (alloc(), alloc(), alloc());
    let first = world.span.start;
    let window_start = first + rng.below((world.span.end - first - 6) as u64) as i64;
    let (o1, o2) = (*rng.pick(&origins), *rng.pick(&origins));
    let selective = [
        format!("subnet-of={a1}"),
        format!("origin={o1}"),
        format!("days={window_start}..{} subnet-of={a3}", window_start + 6),
        format!("subnet-of={a2}"),
        format!("origin={o2}"),
    ];
    std::iter::once(Query {
        filter: SCAN.into(),
        selective: false,
    })
    .chain(selective.into_iter().map(|filter| Query {
        filter,
        selective: true,
    }))
    .collect()
}

struct Inputs {
    files: Vec<QueryFile>,
    queries: Vec<Query>,
}

fn build_inputs(seed: u64) -> Result<Inputs, String> {
    let config = StudyConfig::full();
    let world = build_world(&config);
    let archive = encode(&world, &config.visibility)?;
    Ok(Inputs {
        files: files_from_archive_v2(&archive),
        queries: sample_queries(&world, seed),
    })
}

struct Outcome {
    wall_s: f64,
    digest: u64,
    stats: QueryStats,
}

fn run_one(b: &mut Bench, files: &[QueryFile], q: &Query) -> Option<Outcome> {
    let opts = QueryOptions {
        filter: match Filter::parse(&q.filter) {
            Ok(f) => f,
            Err(e) => {
                b.check(false, || {
                    format!("query {:?} does not parse: {e}", q.filter)
                });
                return None;
            }
        },
        threads: 1,
        ..QueryOptions::default()
    };
    let (out, wall_s) = timed(|| {
        let _s = if q.selective {
            obs::span!("query.selective")
        } else {
            obs::span!("query.scan")
        };
        run_query(files, &opts)
    });
    match out {
        Ok(out) => {
            // The broad scan must emit rows; every query emits all it
            // matched (no limit) after the CSV header.
            let ok = out.stats.rows_emitted == out.stats.rows_matched
                && out.body.lines().count() == out.stats.rows_emitted + 1
                && (q.selective || out.stats.rows_emitted > 0);
            b.check(ok, || {
                format!("query {:?} output inconsistent: {:?}", q.filter, out.stats)
            });
            Some(Outcome {
                wall_s,
                digest: digest_of(&out.body),
                stats: out.stats,
            })
        }
        Err(e) => {
            b.check(false, || format!("query {:?} failed: {e}", q.filter));
            None
        }
    }
}

/// Run the whole sequence once; `None` entries are failed queries.
fn sequence(b: &mut Bench, inp: &Inputs) -> Vec<Option<Outcome>> {
    inp.queries
        .iter()
        .map(|q| run_one(b, &inp.files, q))
        .collect()
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let seed = b.seed;
    let inp = b.setup(|| build_inputs(seed))?;
    for q in &inp.queries {
        note(&format!(
            "query {}: {}",
            if q.selective { "selective" } else { "scan" },
            q.filter
        ));
    }
    b.start_timed();
    let mut seqs: Vec<(f64, Vec<Option<Outcome>>)> = Vec::new();
    while b.more(seqs.len(), 2, 20) {
        let (outs, wall) = timed(|| sequence(b, &inp));
        seqs.push((wall, outs));
    }
    // Each query's output must repeat across sequences.
    for (i, q) in inp.queries.iter().enumerate() {
        let digests: Vec<u64> = seqs
            .iter()
            .filter_map(|(_, o)| o[i].as_ref().map(|o| o.digest))
            .collect();
        for d in digests.iter().skip(1) {
            b.check(*d == digests[0], || {
                format!("query {:?} digest changed between sequences", q.filter)
            });
        }
    }
    let mut scan = Vec::new();
    let mut selective = Vec::new();
    for (_, outs) in &seqs {
        for (q, o) in inp.queries.iter().zip(outs) {
            if let Some(o) = o {
                if q.selective {
                    selective.push(o.wall_s * 1e3);
                } else {
                    scan.push(o.wall_s);
                }
            }
        }
    }
    let walls: Vec<f64> = seqs.iter().map(|(w, _)| *w).collect();
    note(&format!("sequences {} (1 client, 1 worker)", seqs.len()));
    note(&format!(
        "query_scan_s {} s (n={})",
        median(&scan),
        scan.len()
    ));
    note(&format!(
        "query_selective_ms {} ms (n={})",
        median(&selective),
        selective.len()
    ));
    if let Some((_, outs)) = seqs.first() {
        for (q, o) in inp
            .queries
            .iter()
            .zip(outs)
            .filter_map(|(q, o)| o.as_ref().map(|o| (q, o)))
        {
            note(&format!(
                "  {:?}: {} of {} elements matched, {} files pruned",
                q.filter, o.stats.rows_matched, o.stats.elems_scanned, o.stats.files_pruned
            ));
        }
    }
    b.metric("work_s", median(&walls));
    b.metric("op_ms", median(&selective));
    Ok(())
}

/// The traced run's query layers: the seeded sequence once, traced,
/// over the archive the MRT layers already encoded.
pub fn trace(
    b: &mut Bench,
    profile: &Arc<PathProfile>,
    world: &LeaseWorld,
    archive: &CollectorArchiveV2,
) -> Result<(), String> {
    let inp = Inputs {
        files: files_from_archive_v2(archive),
        queries: sample_queries(world, b.seed),
    };
    let guard = obs::subscribe(profile.clone());
    let outs = sequence(b, &inp);
    drop(guard);

    for (class, selective) in [("scan", false), ("selective", true)] {
        let mut total = QueryStats::default();
        for (q, o) in inp.queries.iter().zip(&outs) {
            if let (Some(o), true) = (o, q.selective == selective) {
                total.elems_scanned += o.stats.elems_scanned;
                total.rows_matched += o.stats.rows_matched;
                total.files_pruned += o.stats.files_pruned;
            }
        }
        let wall = secs(profile.leaf(&format!("query.{class}")).total);
        let elems = total.elems_scanned as f64;
        b.metric(&format!("query.{class}.elems_scanned"), elems);
        b.metric(
            &format!("query.{class}.rows_matched"),
            total.rows_matched as f64,
        );
        b.metric(
            &format!("query.{class}.match_ratio"),
            total.rows_matched as f64 / elems.max(1.0),
        );
        b.metric(
            &format!("query.{class}.files_pruned"),
            total.files_pruned as f64,
        );
        b.metric(&format!("query.{class}.elems_per_s"), elems / wall);
    }
    Ok(())
}
