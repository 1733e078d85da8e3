//! `mrt_pipeline`: encode the RFC 6396 archive for the full study
//! window, then infer the baseline and extended delegation series from
//! it. Most of the work is in `bgpsim::engine`/`bgpsim::updates`
//! (encode) and `ObservationSweep`/`bgpsim::mrt2` (decode).
//!
//! End-to-end mapping: `work_s` = encode + both inference passes per
//! repetition (`encode_s` + `infer_s`); `op_ms` = the inference part
//! alone (`infer_s`: baseline and extended `run_pipeline(MrtArchive)`).

use crate::common::{digest_of, median, note, secs, timed, Bench, Digest, PathProfile};
use bgpsim::engine::RenderEngine;
use bgpsim::observe::VisibilityModel;
use bgpsim::query::{files_from_archive_v2, QueryFile};
use bgpsim::scenario::LeaseWorld;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use delegation::as2org::As2OrgSeries;
use delegation::config::InferenceConfig;
use delegation::pipeline::{run_pipeline, DailyDelegations, PipelineInput};
use drywells::StudyConfig;
use std::hash::Hasher;
use std::sync::Arc;

/// The mrt_pipeline inputs: the full-scale world and its AS-to-Org
/// series (what extension (iv) needs).
pub struct Inputs {
    pub config: StudyConfig,
    pub world: LeaseWorld,
    pub as2org: As2OrgSeries,
}

pub fn build_world(config: &StudyConfig) -> LeaseWorld {
    let _s = obs::span!("scenario.world_generate");
    LeaseWorld::generate(&config.world)
}

fn build_inputs() -> Inputs {
    let config = StudyConfig::full();
    let world = build_world(&config);
    // Same quarterly cadence as the study build.
    let as2org = As2OrgSeries::from_topology(&world.topology, world.span.start, world.span.end, 90);
    Inputs {
        config,
        world,
        as2org,
    }
}

pub fn encode(world: &LeaseWorld, vis: &VisibilityModel) -> Result<CollectorArchiveV2, String> {
    let _s = obs::span!("updates.generate");
    CollectorArchiveV2::generate(world, vis, world.span, &ArchiveV2Config::default())
        .map_err(|e| format!("archive encoding failed: {e}"))
}

/// Hash of every archive file, in date order.
pub fn archive_digest(archive: &CollectorArchiveV2) -> u64 {
    let mut d = Digest::default();
    for day in archive.rib_dates() {
        d.write(archive.rib_bytes(day).expect("listed RIB date"));
    }
    for day in archive.update_dates() {
        d.write(archive.update_bytes(day).expect("listed update date"));
    }
    d.finish()
}

/// Both series must cover every day of the window, with no fallback
/// or missing day and delegations present on each day.
fn check_series(b: &mut Bench, label: &str, s: &DailyDelegations, days: usize) {
    let empty = s.days.iter().filter(|d| d.is_empty()).count();
    b.check(
        s.days.len() == days
            && s.fallback_days.is_empty()
            && s.missing_days.is_empty()
            && empty == 0,
        || {
            format!(
                "{label} series: {} of {days} days, {} fallback, {} missing, {empty} empty",
                s.days.len(),
                s.fallback_days.len(),
                s.missing_days.len()
            )
        },
    );
}

struct Pass {
    digest: u64,
    encode_s: f64,
    baseline_s: f64,
    extended_s: f64,
}

/// One full pass: encode, then infer both series. Output checks are
/// recorded in `b`; `None` when encoding failed.
fn pass(b: &mut Bench, inp: &Inputs) -> Option<(Pass, CollectorArchiveV2)> {
    let span = inp.world.span;
    let days = span.iter().count();
    let (archive, encode_s) = timed(|| encode(&inp.world, &inp.config.visibility));
    let archive = match archive {
        Ok(a) => a,
        Err(e) => {
            b.check(false, || e);
            return None;
        }
    };
    b.check(archive.total_bytes() > 0, || "archive is empty".into());
    let (baseline, baseline_s) = timed(|| {
        let _s = obs::span!("pipeline.mrt_baseline");
        run_pipeline(
            PipelineInput::MrtArchive(&archive),
            span,
            &InferenceConfig::baseline(),
            None,
        )
    });
    let (extended, extended_s) = timed(|| {
        let _s = obs::span!("pipeline.mrt_extended");
        run_pipeline(
            PipelineInput::MrtArchive(&archive),
            span,
            &InferenceConfig::extended(),
            Some(&inp.as2org),
        )
    });
    check_series(b, "baseline", &baseline, days);
    check_series(b, "extended", &extended, days);
    let digest = digest_of(&(archive_digest(&archive), &baseline.days, &extended.days));
    let p = Pass {
        digest,
        encode_s,
        baseline_s,
        extended_s,
    };
    Some((p, archive))
}

pub fn run(b: &mut Bench) -> Result<(), String> {
    let inp = b.setup(|| Ok(build_inputs()))?;
    b.start_timed();
    let mut passes = Vec::new();
    let mut reps = 0;
    while b.more(reps, 2, 20) {
        reps += 1;
        if let Some((p, _)) = pass(b, &inp) {
            passes.push(p);
        }
    }
    for p in passes.iter().skip(1) {
        let first = passes[0].digest;
        b.check(p.digest == first, || {
            format!("output digest {:x} != first pass {first:x}", p.digest)
        });
    }
    let encode: Vec<f64> = passes.iter().map(|p| p.encode_s).collect();
    let infer: Vec<f64> = passes.iter().map(|p| p.baseline_s + p.extended_s).collect();
    let work: Vec<f64> = passes
        .iter()
        .map(|p| p.encode_s + p.baseline_s + p.extended_s)
        .collect();
    note(&format!(
        "passes {} (1 worker); digest {:x}",
        passes.len(),
        passes.first().map_or(0, |p| p.digest)
    ));
    note(&format!(
        "encode_s {} s (per pass {encode:?})",
        median(&encode)
    ));
    note(&format!(
        "infer_s {} s (per pass {infer:?})",
        median(&infer)
    ));
    b.metric("work_s", median(&work));
    b.metric("op_ms", median(&infer) * 1e3);
    Ok(())
}

/// Decode every archive file with `decode_file_lossy`, each call in a
/// `mrt2.decode_file` span. Returns (records, bytes); every file must
/// decode cleanly.
pub fn decode_probe(b: &mut Bench, files: &[QueryFile]) -> (usize, usize) {
    let (mut records, mut bytes) = (0, 0);
    for f in files {
        let (recs, stats) = {
            let _s = obs::span!("mrt2.decode_file");
            bgpsim::mrt2::decode_file_lossy(&f.bytes)
        };
        b.check(stats.is_clean(), || {
            format!("{} file {} decoded lossy: {stats:?}", f.day, f.bytes.len())
        });
        records += recs.len();
        bytes += f.bytes.len();
    }
    (records, bytes)
}

/// The traced run's MRT layers: one traced pass (encode, both
/// inference configs), the engine's seed and every day transition,
/// the sweep over every day, and `decode_file_lossy` over every file;
/// then one untraced pass at two workers (same digest; speed-up).
/// Returns the inputs and the archive for the query layers.
pub fn trace(
    b: &mut Bench,
    profile: &Arc<PathProfile>,
) -> Result<(Inputs, CollectorArchiveV2), String> {
    let guard = obs::subscribe(profile.clone());
    let inp = build_inputs();
    let span = inp.world.span;
    let (traced, archive) = pass(b, &inp).ok_or("traced pass failed")?;

    // Engine: one seed plus every day transition of the window.
    let mut sel_changes = 0usize;
    {
        let engine = RenderEngine::new(&inp.world, &inp.config.visibility);
        let mut state = {
            let _s = obs::span!("engine.seed_state");
            engine
                .seed_state(span.start)
                .ok_or("window start outside the engine span")?
        };
        let mut changes = Vec::new();
        while state.day() < span.end {
            let _s = obs::span!("engine.advance_state");
            engine
                .advance_state(&mut state, &mut changes)
                .ok_or("day transition left the engine span")?;
            sel_changes += changes.iter().map(Vec::len).sum::<usize>();
        }
    }

    // Sweep: advance over every day, RIB days and update days apart.
    let (mut changed, mut rebuilt_days) = (0usize, 0usize);
    let mut sweep = archive.sweep();
    for d in span.iter() {
        let delta = if archive.rib_bytes(d).is_some() {
            let _s = obs::span!("sweep.rib_day");
            sweep.advance(d)
        } else {
            let _s = obs::span!("sweep.update_day");
            sweep.advance(d)
        };
        match delta {
            Ok(delta) => match delta.changed {
                Some(c) => changed += c.len(),
                None => rebuilt_days += 1,
            },
            Err(e) => b.check(false, || format!("sweep failed on {d}: {e}")),
        }
    }
    let full_rebuilds = sweep.full_rebuilds();
    let (records, decoded_bytes) = decode_probe(b, &files_from_archive_v2(&archive));
    drop(guard);

    // A whole pass at two workers, untraced: same digest, and the
    // inference speed-up over the one-worker pass.
    std::env::set_var("DRYWELLS_THREADS", "2");
    let two = pass(b, &inp);
    std::env::set_var("DRYWELLS_THREADS", "1");
    let (two, _) = two.ok_or("2-worker pass failed")?;
    b.check(two.digest == traced.digest, || {
        format!(
            "2-worker digest {:x} != 1-worker {:x}",
            two.digest, traced.digest
        )
    });

    let rib_bytes: usize = archive
        .rib_dates()
        .filter_map(|d| archive.rib_bytes(d))
        .map(|x| x.len())
        .sum();
    let update_bytes: usize = archive
        .update_dates()
        .filter_map(|d| archive.update_bytes(d))
        .map(|x| x.len())
        .sum();
    let decode = secs(profile.leaf("mrt2.decode_file").total);
    note(&format!(
        "sweep days rebuilt from scratch (changed=None): {rebuilt_days}"
    ));
    b.metric("engine.seed_state_ms", profile.leaf_ms("engine.seed_state"));
    b.metric(
        "engine.advance_state_ms",
        profile.leaf_ms("engine.advance_state"),
    );
    b.metric("engine.sel_changes", sel_changes as f64);
    b.metric("updates.rib_bytes", rib_bytes as f64);
    b.metric("updates.update_bytes", update_bytes as f64);
    b.metric(
        "updates.encode_mb_per_s",
        (rib_bytes + update_bytes) as f64 / 1e6 / traced.encode_s,
    );
    b.metric("sweep.rib_day_ms", profile.leaf_ms("sweep.rib_day"));
    b.metric("sweep.update_day_ms", profile.leaf_ms("sweep.update_day"));
    b.metric("sweep.full_rebuilds", full_rebuilds as f64);
    b.metric("sweep.changed_prefixes", changed as f64);
    b.metric("mrt2.decode_ms", decode * 1e3);
    b.metric("mrt2.decode_mb_per_s", decoded_bytes as f64 / 1e6 / decode);
    b.metric("mrt2.records", records as f64);
    b.metric("pipeline.mrt_baseline_ms", traced.baseline_s * 1e3);
    b.metric("pipeline.mrt_extended_ms", traced.extended_s * 1e3);
    b.metric(
        "par.infer_speedup_2t",
        (traced.baseline_s + traced.extended_s) / (two.baseline_s + two.extended_s),
    );
    Ok((inp, archive))
}
