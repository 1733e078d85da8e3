//! Integration: run the delegation pipeline from a genuine MRT
//! archive (TABLE_DUMP_V2 RIBs + BGP4MP update files) and compare
//! with the direct-rendering input path; and hold the borrowed RIB
//! decoders to the owned ones on mutated archive bytes.

use bgpsim::bgp::{decode_attributes, origin_from_attribute_bytes, origin_from_attributes};
use bgpsim::mrt2::{decode_file, MrtRecord, RecordReader, RibItem, RibReader};
use bgpsim::updates::{ArchiveV2Config, CollectorArchiveV2};
use bytes::Bytes;
use delegation::config::InferenceConfig;
use delegation::eval::evaluate_against_truth;
use delegation::pipeline::{run_pipeline, PipelineInput};
use drywells::experiments::build_bgp_study;
use drywells::StudyConfig;
use nettypes::date::date;

#[test]
fn mrt_pipeline_close_to_direct_rendering() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(14));
    let span = study.world.span;
    let archive = CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        span,
        &ArchiveV2Config::default(),
    )
    .expect("archive encodes");

    let cfg = InferenceConfig::extended();
    let direct = run_pipeline(
        PipelineInput::Days(&study.days),
        span,
        &cfg,
        Some(&study.as2org),
    );
    let via_mrt = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &cfg,
        Some(&study.as2org),
    );

    // Same days, no gaps.
    assert_eq!(via_mrt.days.len(), direct.days.len());
    assert!(via_mrt.missing_days.is_empty());
    assert!(via_mrt.fallback_days.is_empty());

    // Quality must match or beat the direct path. Exact equality is
    // not expected: the MRT layer enforces one best path per (peer,
    // prefix) — as real collectors do — so a transient MOAS conflict
    // splits the monitor count between the two origins and the
    // minority origin falls below the visibility threshold, leaving
    // the prefix usable; the rendering layer instead reports both
    // origins at full strength and step (iii) drops the prefix. The
    // best-path model is the more faithful of the two, so the MRT
    // path may only *gain* recall.
    let e_direct = evaluate_against_truth(&study.world, &direct);
    let e_mrt = evaluate_against_truth(&study.world, &via_mrt);
    assert!(
        e_mrt.recall() >= e_direct.recall() - 0.02,
        "recall: direct {:.3} vs MRT {:.3}",
        e_direct.recall(),
        e_mrt.recall()
    );
    assert!(
        e_mrt.precision() > 0.9,
        "MRT-path precision {:.3}",
        e_mrt.precision()
    );
}

#[test]
fn mrt_pipeline_survives_archive_damage() {
    let study = build_bgp_study(&StudyConfig::quick_seeded(15));
    let span = study.world.span;
    let mut archive = CollectorArchiveV2::generate(
        &study.world,
        study.visibility_model(),
        span,
        &ArchiveV2Config {
            rib_every_days: 7,
            ..Default::default()
        },
    )
    .expect("archive encodes");
    // Remove two update files and corrupt a third.
    assert!(archive.drop_update_file(date("2018-01-20")));
    assert!(archive.drop_update_file(date("2018-02-14")));
    let damaged = archive.update_bytes(date("2018-03-02")).unwrap().clone();
    let mut v = damaged.to_vec();
    v.truncate(v.len() / 2);
    archive.corrupt_update_file(date("2018-03-02"), Bytes::from(v));

    let result = run_pipeline(
        PipelineInput::MrtArchive(&archive),
        span,
        &InferenceConfig::extended(),
        Some(&study.as2org),
    );
    // Fallback days were used but every day produced data.
    assert!(result.missing_days.is_empty());
    let eval = evaluate_against_truth(&study.world, &result);
    assert!(
        eval.recall() > 0.65,
        "damaged-archive recall {:.3}",
        eval.recall()
    );
    assert!(
        eval.precision() > 0.9,
        "damaged-archive precision {:.3}",
        eval.precision()
    );
}

// ---------------------------------------------------------------------------
// The borrowed RIB reader and origin extractor against the owned
// decoders, on structure-aware mutations of real archive bytes. Both
// must agree on every input and neither may panic.
// ---------------------------------------------------------------------------

/// Attribute blobs and whole records, as raw bytes.
type RibFixture = (Vec<Vec<u8>>, Vec<Vec<u8>>);

/// Every distinct attribute blob and every record of a quick archive's
/// first two RIB files.
fn rib_fixture() -> &'static RibFixture {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<RibFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let config = StudyConfig::quick_seeded(53);
        let world = bgpsim::scenario::LeaseWorld::generate(&config.world);
        let archive = CollectorArchiveV2::generate(
            &world,
            &config.visibility,
            world.span,
            &ArchiveV2Config::default(),
        )
        .expect("archive encodes");
        let mut blobs = std::collections::BTreeSet::new();
        let mut records = Vec::new();
        for d in archive.rib_dates().take(2) {
            let bytes = archive.rib_bytes(d).expect("listed RIB");
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let len = 12 + u32::from_be_bytes([rest[8], rest[9], rest[10], rest[11]]) as usize;
                records.push(rest[..len].to_vec());
                rest = &rest[len..];
            }
            for rec in decode_file(bytes).expect("clean RIB") {
                if let MrtRecord::RibIpv4Unicast(r) = rec.record {
                    blobs.extend(r.entries.iter().map(|e| e.attributes.to_vec()));
                }
            }
        }
        (blobs.into_iter().collect(), records)
    })
}

fn decoded_origin(blob: &[u8]) -> Option<nettypes::asn::Origin> {
    decode_attributes(blob)
        .ok()
        .and_then(|a| origin_from_attributes(&a))
}

/// `(flags offset, value start, value end)` of each attribute whose
/// header fits (an earlier mutation may have broken the framing; the
/// value end is clamped to the blob).
fn tlvs(blob: &[u8]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 4 <= blob.len() {
        let (len, header) = if blob[i] & 0x10 != 0 {
            (u16::from_be_bytes([blob[i + 2], blob[i + 3]]) as usize, 4)
        } else {
            (blob[i + 2] as usize, 3)
        };
        out.push((i, i + header, (i + header + len).min(blob.len())));
        i += header + len;
    }
    out
}

/// One structure-aware attribute mutation; `at` picks the attribute
/// (or byte) and `x` supplies the new value.
fn mutate_attributes(blob: &mut Vec<u8>, kind: u8, at: usize, x: u8) {
    let attrs = tlvs(blob);
    if attrs.is_empty() {
        blob.push(x);
        return;
    }
    let (flags, vstart, _) = attrs[at % attrs.len()];
    let as_path = attrs.iter().find(|&&(f, ..)| blob[f + 1] == 2).copied();
    match kind {
        // Flip the extended-length flag without re-framing.
        0 => blob[flags] ^= 0x10,
        // Cut a one-byte length short.
        1 if blob[flags] & 0x10 == 0 => blob[flags + 2] = blob[flags + 2].saturating_sub(1 + x % 4),
        // An unknown AS_PATH segment type.
        2 => {
            if let Some((_, v, end)) = as_path {
                if v < end {
                    blob[v] = [0, 3, 4, 0xFF][usize::from(x % 4)];
                }
            }
        }
        // Append a second AS_PATH (type byte 1..=3, maybe malformed).
        3 => {
            let value = [1 + x % 3, 1, 0, 0, 0xFD, x];
            blob.extend_from_slice(&[0x40, 2, value.len() as u8]);
            blob.extend_from_slice(&value);
        }
        4 => {
            let i = (vstart + usize::from(x)) % blob.len();
            blob[i] ^= x | 1;
        }
        _ => blob.truncate(at % (blob.len() + 1)),
    }
}

/// One structure-aware mutation of a whole `RIB_IPV4_UNICAST` record.
fn mutate_rib_record(rec: &mut Vec<u8>, kind: u8, at: usize, x: u8) {
    let set_len = |rec: &mut Vec<u8>| {
        let body = (rec.len() - 12) as u32;
        rec[8..12].copy_from_slice(&body.to_be_bytes());
    };
    let count_at = 17 + usize::from(rec[16].min(32)).div_ceil(8);
    match kind {
        0 => {
            let i = at % rec.len();
            rec[i] ^= x | 1;
        }
        // Claim more (or fewer) entries than the body holds.
        1 if count_at + 2 <= rec.len() => {
            let c = u16::from_be_bytes([rec[count_at], rec[count_at + 1]]);
            let c = c.wrapping_add(u16::from(x % 3)).wrapping_sub(1);
            rec[count_at..count_at + 2].copy_from_slice(&c.to_be_bytes());
        }
        // Truncate the body and re-frame it: the record is skipped as
        // truncated, the rest of the file stays readable. Half the cuts
        // land inside the last entry's attributes.
        2 => {
            let keep = if x.is_multiple_of(2) {
                rec.len() - 1 - at % 8
            } else {
                12 + at % (rec.len() - 11)
            };
            rec.truncate(keep);
            set_len(rec);
        }
        // Overstate the first entry's attribute length.
        3 if count_at + 10 <= rec.len() => {
            let i = count_at + 2 + 6;
            rec[i + 1] = rec[i + 1].wrapping_add(1 + x % 8);
        }
        // Cut the record without re-framing: the scan aborts.
        4 => rec.truncate(at % rec.len()),
        _ => rec[16] = x,
    }
}

/// The owned scan's peer tables and RIB records, as the borrowed
/// reader should yield them.
fn owned_rib_items(bytes: &[u8]) -> (Vec<String>, bgpsim::mrt2::LossyStats) {
    let mut reader = RecordReader::new(bytes);
    let items = reader
        .by_ref()
        .filter_map(|rec| match rec.record {
            MrtRecord::PeerIndexTable(t) => Some(format!("{t:?}")),
            MrtRecord::RibIpv4Unicast(r) => Some(format!(
                "{} {} {:?}",
                r.sequence,
                r.prefix,
                r.entries
                    .iter()
                    .map(|e| (e.peer_index, e.originated_time, e.attributes.to_vec()))
                    .collect::<Vec<_>>()
            )),
            _ => None,
        })
        .collect();
    (items, reader.stats())
}

fn borrowed_rib_items(bytes: &[u8]) -> (Vec<String>, bgpsim::mrt2::LossyStats) {
    let mut reader = RibReader::new(bytes);
    let items = reader
        .by_ref()
        .map(|item| match item {
            RibItem::PeerTable(t) => format!("{t:?}"),
            RibItem::Rib(r) => format!(
                "{} {} {:?}",
                r.sequence,
                r.prefix,
                r.entries()
                    .map(|e| (e.peer_index, e.originated_time, e.attributes.to_vec()))
                    .collect::<Vec<_>>()
            ),
        })
        .collect();
    (items, reader.stats())
}

#[test]
fn borrowed_decoders_agree_on_clean_archive_bytes() {
    let (blobs, records) = rib_fixture();
    assert!(blobs.len() > 10 && records.len() > 100);
    for blob in blobs {
        let want = decoded_origin(blob);
        assert!(want.is_some(), "archive blob without an origin: {blob:?}");
        assert_eq!(origin_from_attribute_bytes(blob), want);
    }
    let file: Vec<u8> = records.concat();
    let (owned, owned_stats) = owned_rib_items(&file);
    assert!(owned_stats.is_clean());
    assert_eq!(borrowed_rib_items(&file), (owned, owned_stats));
}

proptest::proptest! {
    #[test]
    fn prop_borrowed_origin_matches_decoder_on_mutated_blobs(
        pick in proptest::prelude::any::<u16>(),
        muts in proptest::collection::vec(
            (0u8..6, proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
            1..3,
        ),
    ) {
        let (blobs, _) = rib_fixture();
        let mut blob = blobs[usize::from(pick) % blobs.len()].clone();
        for (kind, at, x) in muts {
            mutate_attributes(&mut blob, kind, usize::from(at), x);
        }
        proptest::prop_assert_eq!(origin_from_attribute_bytes(&blob), decoded_origin(&blob));
    }

    #[test]
    fn prop_borrowed_rib_reader_matches_decoder_on_mutated_records(
        pick in proptest::prelude::any::<u16>(),
        kind in 0u8..6,
        at in proptest::prelude::any::<u16>(),
        x in proptest::prelude::any::<u8>(),
    ) {
        let (_, records) = rib_fixture();
        // A peer table, the mutated record, then an intact neighbour:
        // damage must cost exactly what the owned scan charges.
        let i = 1 + usize::from(pick) % (records.len() - 2);
        let mut rec = records[i].clone();
        mutate_rib_record(&mut rec, kind, usize::from(at), x);
        let file = [records[0].clone(), rec, records[i + 1].clone()].concat();
        let owned = owned_rib_items(&file);
        proptest::prop_assert_eq!(borrowed_rib_items(&file), owned);
    }

    #[test]
    fn prop_borrowed_decoders_never_panic_on_random_bytes(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
    ) {
        let _ = origin_from_attribute_bytes(&bytes);
        let (items, stats) = borrowed_rib_items(&bytes);
        proptest::prop_assert_eq!(stats.bytes_scanned + stats.bytes_unscanned, bytes.len());
        proptest::prop_assert_eq!((items, stats), owned_rib_items(&bytes));
    }
}
