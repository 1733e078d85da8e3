//! Integration: the archive sweep against the independent from-scratch
//! oracle (`common/archive_oracle.rs`), served in sequence and as a
//! reanchor on every day, over clean and damaged archives. Provenance,
//! observation surface and error value must all match.

#[path = "common/archive_oracle.rs"]
mod archive_oracle;

use bgpsim::bgp::{self, AsPathSegment, PathAttribute};
use bgpsim::mrt2::{
    decode_file, encode_file, MrtRecord, RibEntry, RibIpv4Unicast, TimestampedRecord,
};
use bgpsim::observe::VisibilityModel;
use bgpsim::scenario::{LeaseWorld, WorldConfig};
use bgpsim::topology::TopologyConfig;
use bgpsim::updates::{
    ArchiveError, ArchiveV2Config, CollectorArchiveV2, DayDelta, ObservationSweep, Provenance,
};
use bytes::Bytes;
use nettypes::asn::{Asn, Origin};
use nettypes::date::{date, Date, DateRange};

/// A 31-day, 12-monitor archive with a RIB every 7 days (Jan 1, 8, 15,
/// 22 and 29).
fn archive() -> CollectorArchiveV2 {
    let world = LeaseWorld::generate(&WorldConfig {
        seed: 33,
        span: DateRange::new(date("2018-01-01"), date("2018-01-31")),
        topology: TopologyConfig {
            seed: 33,
            num_tier1: 4,
            num_tier2: 10,
            num_stubs: 80,
            multi_as_org_fraction: 0.15,
        },
        num_allocations: 30,
        initial_active_leases: 80,
        bgp_visible_fraction: 0.4,
        onoff_fraction: 0.5,
        num_hijacks: 3,
        num_moas: 3,
        num_as_sets: 2,
        num_scrubbing: 1,
        ..Default::default()
    });
    let model = VisibilityModel {
        num_monitors: 12,
        daily_flicker: 0.01,
        seed: 33,
    };
    CollectorArchiveV2::generate(
        &world,
        &model,
        world.span,
        &ArchiveV2Config {
            rib_every_days: 7,
            ..Default::default()
        },
    )
    .expect("archive encodes")
}

fn days(from: &str, to: &str) -> impl Iterator<Item = Date> {
    DateRange::new(date(from), date(to)).iter()
}

/// Assert that what the sweep served for `d` is what the oracle
/// reconstructs: the same provenance and surface, or the same error.
fn assert_matches_oracle(
    archive: &CollectorArchiveV2,
    sweep: &ObservationSweep<'_>,
    d: Date,
    served: &Result<DayDelta, ArchiveError>,
) {
    match (served, archive_oracle::day_view(archive, d)) {
        (Ok(delta), Ok(view)) => {
            assert_eq!(
                delta.provenance, view.provenance,
                "provenance differs on {d}"
            );
            assert_eq!(
                sweep.observation_day(d),
                view.to_observation_day(),
                "observation surface differs on {d}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(*a, b, "error differs on {d}"),
        (a, b) => panic!(
            "sweep and oracle disagree on {d}: {a:?} vs {:?}",
            b.map(|v| v.provenance)
        ),
    }
}

#[test]
fn sweep_matches_day_view_every_day() {
    let archive = archive();
    let mut sweep = archive.sweep();
    for d in days("2018-01-01", "2018-01-31") {
        let served = sweep.advance(d);
        assert!(served.is_ok(), "{d} serves");
        assert_matches_oracle(&archive, &sweep, d, &served);
    }
}

#[test]
fn sweep_memoizes_fallback_rib() {
    let mut archive = archive();
    // Kill Jan 3's update file: Jan 3–7 fall forward to the Jan 8
    // RIB, which must be decoded exactly once.
    assert!(archive.drop_update_file(date("2018-01-03")));
    let mut sweep = archive.sweep();
    let mut rebuilds_at_fallback_start = None;
    for d in days("2018-01-01", "2018-01-31") {
        let served = sweep.advance(d);
        assert!(served.is_ok(), "{d} serves");
        assert_matches_oracle(&archive, &sweep, d, &served);
        if d == date("2018-01-03") {
            rebuilds_at_fallback_start = Some(sweep.full_rebuilds());
        }
        if d > date("2018-01-03") && d <= date("2018-01-08") {
            // Consecutive fallback days (and the RIB day the
            // fallback anchors to) cost no further rebuilds.
            assert_eq!(
                Some(sweep.full_rebuilds()),
                rebuilds_at_fallback_start,
                "{d}"
            );
        }
    }
    // 31 from-scratch reconstructions would have paid 31 rebuilds; the
    // sweep rebuilds only at Jan 1 and the fallback. The later RIB days
    // (15, 22, 29) arrive in sequence and merge-join instead.
    assert_eq!(sweep.full_rebuilds(), 2);
    assert_eq!(sweep.rib_merges(), 3);
}

#[test]
fn sweep_rib_merge_keeps_map_semantics_on_odd_ribs() {
    let mut archive = archive();
    let d = date("2018-01-15");
    let mut records = decode_file(archive.rib_bytes(d).unwrap()).expect("clean RIB");
    let MrtRecord::RibIpv4Unicast(first) = records[1].record.clone() else {
        panic!("RIB record expected after the peer table");
    };
    let pi = first.entries[0].peer_index;
    let other_origin = bgp::encode_attributes(&[PathAttribute::AsPath(vec![
        AsPathSegment::Sequence(vec![Asn(64_999)]),
    ])]);
    let entry = |peer_index: u16, attributes: Bytes| RibEntry {
        peer_index,
        originated_time: 0,
        attributes,
    };
    let rib = |entries: Vec<RibEntry>| TimestampedRecord {
        timestamp: 0,
        record: MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
            sequence: 0,
            prefix: first.prefix,
            entries,
        }),
    };
    // Before the peer table: dropped. After the last record: the
    // second write wins, then an undecodable write and an
    // out-of-range peer change nothing.
    records.insert(0, rib(vec![entry(pi, other_origin.clone())]));
    records.push(rib(vec![entry(pi, other_origin)]));
    records.push(rib(vec![
        entry(pi, Bytes::from_static(&[0x40, 2, 9])),
        entry(u16::MAX, first.entries[0].attributes.clone()),
    ]));
    archive.replace_rib(d, encode_file(&records).expect("encodes"));

    let mut sweep = archive.sweep();
    for day in days("2018-01-01", "2018-01-31") {
        let served = sweep.advance(day);
        assert_matches_oracle(&archive, &sweep, day, &served);
        if day == d {
            let view = archive_oracle::day_view(&archive, day).expect("oracle serves");
            assert_eq!(
                view.peer_routes[usize::from(pi)][&first.prefix],
                Origin::Single(Asn(64_999))
            );
            let changed = served.expect("day serves").changed.expect("merged");
            assert!(changed.contains(&first.prefix));
        }
    }
    assert_eq!((sweep.full_rebuilds(), sweep.rib_merges()), (1, 4));
}

#[test]
fn sweep_trailing_gap_errors_every_day() {
    let mut archive = archive();
    // Remove the last RIB and every update file after Jan 25: days
    // 26+ have no data at all.
    assert!(archive.drop_rib(date("2018-01-29")));
    for d in days("2018-01-26", "2018-01-31") {
        archive.drop_update_file(d);
    }
    let mut sweep = archive.sweep();
    for d in days("2018-01-01", "2018-01-31") {
        let served = sweep.advance(d);
        assert_eq!(served.is_err(), d >= date("2018-01-26"), "{d}");
        assert_matches_oracle(&archive, &sweep, d, &served);
    }
}

#[test]
fn reanchor_matches_day_view_on_every_day() {
    let clean = archive();
    let mut dropped = clean.clone();
    assert!(dropped.drop_update_file(date("2018-01-03")));
    let mut dropped_and_next_rib = dropped.clone();
    assert!(dropped_and_next_rib.drop_rib(date("2018-01-08")));
    let mut mid_and_trailing_gap = clean.clone();
    assert!(mid_and_trailing_gap.drop_update_file(date("2018-01-17")));
    assert!(mid_and_trailing_gap.drop_rib(date("2018-01-29")));
    for d in days("2018-01-26", "2018-01-31") {
        mid_and_trailing_gap.drop_update_file(d);
    }
    let mut truncated = clean.clone();
    let bytes = truncated
        .update_bytes(date("2018-01-04"))
        .expect("listed update");
    let half = Bytes::copy_from_slice(&bytes[..bytes.len() / 2]);
    truncated.corrupt_update_file(date("2018-01-04"), half);

    let variants = [
        ("clean", clean),
        ("dropped update", dropped),
        ("dropped update and next RIB", dropped_and_next_rib),
        ("mid-span and trailing gaps", mid_and_trailing_gap),
        ("truncated update", truncated),
    ];
    for (name, archive) in &variants {
        // From before the first RIB to past the span end, each day
        // served as a fresh sweep's first day.
        for d in days("2017-12-30", "2018-02-02") {
            let mut sweep = archive.sweep();
            let served = sweep.advance(d);
            assert_matches_oracle(archive, &sweep, d, &served);
            if let Ok(delta) = &served {
                assert_eq!(delta.changed, None, "{name}: a reanchor rebuilds on {d}");
                // The RIB at or before the day, plus the fallback RIB
                // when the walk crosses a missing update file.
                let fallback = matches!(delta.provenance, Provenance::FallbackRib { .. });
                assert_eq!(
                    sweep.full_rebuilds(),
                    1 + usize::from(fallback),
                    "{name}: {d}"
                );
            }
        }
    }
    // A reanchor across the Jan 3 gap decodes Jan 1 and then Jan 8.
    let mut sweep = variants[1].1.sweep();
    assert_eq!(
        sweep
            .advance(date("2018-01-05"))
            .expect("falls forward")
            .provenance,
        Provenance::FallbackRib {
            rib_date: date("2018-01-08")
        }
    );
    assert_eq!(sweep.full_rebuilds(), 2);
}
