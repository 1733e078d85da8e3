//! Fault-injection integration: archive gaps, corrupted files, and
//! rate-limited services must degrade gracefully, never panic, and —
//! where the paper defines a fallback — produce near-identical
//! results.

use bgpsim::mrt2::decode_file_lossy;
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use bytes::Bytes;
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::{build_bgp_study, BgpStudy};
use drywells::StudyConfig;
use rdap::database::{DbBuildConfig, WhoisDb};
use rdap::pipeline::{extract_delegations, PipelineConfig};
use rdap::server::RdapServer;

/// The study's RFC 6396 archive: weekly RIBs plus daily update files.
fn archive(study: &BgpStudy) -> CollectorArchiveV2 {
    CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        study.world.span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes")
}

#[test]
fn archive_gaps_barely_move_the_results() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(5));
    let span = study.world.span;
    let clean = archive(&study);

    // Damage ~10 % of days: drop some update files, truncate others.
    let mut damaged = clean.clone();
    let days: Vec<_> = span.iter().collect();
    let n = days.len();
    let dropped: Vec<_> = (3..n).step_by(17).map(|i| days[i]).collect();
    for &d in &dropped {
        assert!(damaged.drop_update_file(d), "update file on {d}");
    }
    for i in (9..n).step_by(23) {
        let bytes = clean.update_bytes(days[i]).expect("update file");
        damaged.corrupt_update_file(days[i], Bytes::from(bytes[..bytes.len() / 3].to_vec()));
    }

    let cfg = InferenceConfig::extended();
    let clean_run = run_pipeline(
        PipelineInput::MrtArchive(&clean),
        span,
        &cfg,
        Some(&study.as2org),
    );
    let damaged_run = run_pipeline(
        PipelineInput::MrtArchive(&damaged),
        span,
        &cfg,
        Some(&study.as2org),
    );
    assert!(!damaged_run.fallback_days.is_empty());
    // A gap with a later RIB falls forward; only the days from the last
    // dropped file on, with no RIB after it, have no data at all.
    let last = *dropped.last().expect("some file dropped");
    let want_missing: Vec<_> = if clean.rib_dates().any(|r| r >= last) {
        Vec::new()
    } else {
        days.iter().copied().filter(|&d| d >= last).collect()
    };
    assert_eq!(damaged_run.missing_days, want_missing);

    let e_clean = evaluate_against_truth(&study.world, &clean_run);
    let e_damaged = evaluate_against_truth(&study.world, &damaged_run);
    assert!(
        (e_clean.recall() - e_damaged.recall()).abs() < 0.05,
        "recall moved too much: {:.3} vs {:.3}",
        e_clean.recall(),
        e_damaged.recall()
    );
    assert!(
        e_damaged.precision() > 0.85,
        "damaged-archive precision {:.3}",
        e_damaged.precision()
    );
}

#[test]
fn fully_corrupted_archive_yields_empty_but_sane_result() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(6));
    let span = study.world.span;
    let mut archive = archive(&study);
    let junk = Bytes::from_static(b"not an mrt file");
    for d in archive.rib_dates().collect::<Vec<_>>() {
        archive.replace_rib(d, junk.clone());
    }
    for d in archive.update_dates().collect::<Vec<_>>() {
        archive.corrupt_update_file(d, junk.clone());
    }
    let result = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &InferenceConfig::baseline(),
        None,
    );
    assert_eq!(result.missing_days.len() as i64, span.num_days());
    assert!(result.days.iter().all(Vec::is_empty));
}

#[test]
fn mrt_bitflips_never_panic_and_roundtrip_detects() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(7));
    let archive = archive(&study);
    let day = archive.update_dates().nth(10).expect("update files exist");
    let bytes = archive.update_bytes(day).expect("listed update");
    let (clean, stats) = decode_file_lossy(bytes);
    assert!(stats.is_clean() && !clean.is_empty(), "{stats:?}");
    // Exhaustive truncations: every byte is accounted for.
    for cut in 0..bytes.len().min(600) {
        let (_, stats) = decode_file_lossy(&bytes[..cut]);
        assert_eq!(
            stats.bytes_scanned + stats.bytes_unscanned,
            cut,
            "cut {cut}"
        );
    }
    // Deterministic bit flips across the file.
    let mut detected = 0;
    for i in (0..bytes.len()).step_by(7) {
        let mut b = bytes.to_vec();
        b[i] ^= 0x40;
        let (records, stats) = decode_file_lossy(&b);
        assert_eq!(
            stats.bytes_scanned + stats.bytes_unscanned,
            b.len(),
            "flip at {i}"
        );
        if !stats.is_clean() || records != clean {
            detected += 1;
        }
    }
    assert!(detected > 0, "no bit flip changed the decode");
}

#[test]
fn rdap_outage_mid_extraction_is_recoverable() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(8));
    let as_of = study.world.span.end;
    let db = WhoisDb::build_from_world(&study.world, as_of, &DbBuildConfig::default());

    // A brutally small rate budget forces many pauses.
    let strict = RdapServer::with_rate_limit(db.clone(), 3);
    let (with_pauses, stats) = extract_delegations(&db, &strict, &PipelineConfig::default());
    assert!(stats.rate_limit_pauses > 5);

    let relaxed = RdapServer::new(db.clone());
    let (without, _) = extract_delegations(&db, &relaxed, &PipelineConfig::default());
    assert_eq!(with_pauses, without, "pauses must not change the result");
}
