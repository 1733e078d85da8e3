//! The daily inference pipeline.
//!
//! Drives the full §4 procedure over a date range: fetch each day's
//! observations from a collector archive (with the paper's missing-
//! file fallback), run steps (i)–(iv), apply extension (iv) per day
//! and extension (v) across days.
//!
//! Both inputs share one walk. The span is split into one contiguous
//! chunk of days per worker of the shared pool (`bgpsim::par`), since
//! the archive sweep carries state from day to day, and the chunks run
//! before the sequential consistency fill. Results merge in day order,
//! so parallel runs are identical to sequential ones.

use crate::as2org::As2OrgSeries;
use crate::base::{
    infer_from_pairs, origin_for_prefix, reduce_prefix_groups, visible_prefix_origins, Delegation,
};
use crate::config::InferenceConfig;
use crate::extensions::{consistency_fill, filter_intra_org};
use bgpsim::mrt2::LossyStats;
use bgpsim::observe::ObservationDay;
use bgpsim::updates::{CollectorArchiveV2, ObservationSweep, Provenance};
use nettypes::asn::Asn;
use nettypes::bogons::BogonFilter;
use nettypes::date::{Date, DateRange};
use nettypes::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Where the pipeline reads observations from.
pub enum PipelineInput<'a> {
    /// An RFC 6396 MRT archive: periodic `TABLE_DUMP_V2` RIBs plus
    /// daily `BGP4MP` update files, reconstructed per the paper's
    /// procedure (the most faithful input path).
    MrtArchive(&'a CollectorArchiveV2),
    /// Pre-rendered observation days (index 0 = span start).
    Days(&'a [ObservationDay]),
}

/// The pipeline result: per-day delegation sets plus bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DailyDelegations {
    /// First day of the span.
    pub start: Date,
    /// `days[i]` = delegations for `start + i`, sorted.
    pub days: Vec<Vec<Delegation>>,
    /// Days whose own archive file was missing/corrupt and were served
    /// by the forward fallback.
    pub fallback_days: Vec<Date>,
    /// Days with no data at all (trailing gaps).
    pub missing_days: Vec<Date>,
    /// Delegations removed by extension (iv), summed over days.
    pub intra_org_removed: usize,
}

impl DailyDelegations {
    /// The delegation set for a date, if inside the span.
    pub fn on(&self, d: Date) -> Option<&[Delegation]> {
        let idx = d - self.start;
        if idx < 0 {
            return None;
        }
        self.days.get(idx as usize).map(Vec::as_slice)
    }
}

/// Run the pipeline over `span`.
///
/// Both inputs go through one chunked walk; they differ only in how a
/// day's prefix-origin pairs are refreshed.
/// `as2org` is required when `config.filter_intra_org` is set; pass
/// `None` to reproduce the baseline.
///
/// The span is split into one contiguous day range per worker
/// (`bgpsim::par::chunk_ranges`). Each worker reduces its days through
/// steps (i)–(iii), then runs step (iv) and extension (iv) per day;
/// chunk results merge in day order, so any worker count produces the
/// same result. Extension (v) then runs across days.
pub fn run_pipeline(
    input: PipelineInput<'_>,
    span: DateRange,
    config: &InferenceConfig,
    as2org: Option<&As2OrgSeries>,
) -> DailyDelegations {
    assert!(
        !config.filter_intra_org || as2org.is_some(),
        "extension (iv) requires an AS-to-Org series"
    );

    let sp = obs::span!("delegation_inference", days = span.num_days() as u64, unit = "days");
    sp.add_items(span.num_days() as u64);

    let dates: Vec<Date> = span.iter().collect();
    let n = dates.len();
    let walk_sp = obs::span!("sweep_infer_days", days = n as u64, unit = "days");
    walk_sp.add_items(n as u64);

    let ranges = bgpsim::par::chunk_ranges(n, bgpsim::par::num_threads());
    // Sums commute, so the tally is the same whichever chunk folds first.
    let tally = Mutex::new(SweepTally::default());
    let per_day: Vec<DayOutcome> = bgpsim::par::map_chunked_with(&ranges, |r| {
        let mut surface = Surface::open(&input);
        let out = r
            .map(|i| {
                let Some((pairs, fallback)) = surface.day_pairs(i, dates[i], config) else {
                    return DayOutcome::Missing;
                };
                let delegations = infer_from_pairs(&pairs);
                let (delegations, removed) = match as2org {
                    Some(series) if config.filter_intra_org => {
                        filter_intra_org(delegations, series, dates[i])
                    }
                    _ => (delegations, 0),
                };
                DayOutcome::Served {
                    delegations,
                    removed,
                    fallback,
                }
            })
            .collect();
        if let Surface::Sweep {
            sweep,
            changed_prefixes,
            ..
        } = &surface
        {
            // A poisoned tally means another chunk panicked; the fan-out
            // re-raises that panic, so the partial sum is never read.
            let mut t = tally.lock().unwrap_or_else(PoisonError::into_inner);
            t.full_rebuilds += sweep.full_rebuilds();
            t.rib_merges += sweep.rib_merges();
            t.changed_prefixes += changed_prefixes;
            t.lossy.merge(&sweep.lossy_stats());
        }
        out
    });
    drop(walk_sp);
    if let PipelineInput::MrtArchive(_) = input {
        tally
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .emit();
    }

    let mut days: Vec<Vec<Delegation>> = Vec::with_capacity(n);
    let mut fallback_days = Vec::new();
    let mut missing_days = Vec::new();
    let mut intra_org_removed = 0usize;
    for (outcome, &d) in per_day.into_iter().zip(&dates) {
        match outcome {
            DayOutcome::Missing => {
                missing_days.push(d);
                days.push(Vec::new());
            }
            DayOutcome::Served {
                delegations,
                removed,
                fallback,
            } => {
                if fallback {
                    fallback_days.push(d);
                }
                intra_org_removed += removed;
                days.push(delegations);
            }
        }
    }
    if !fallback_days.is_empty() {
        obs::event!(
            obs::Level::Warn,
            "archive_fallback_days",
            count = fallback_days.len(),
        );
    }

    // Extension (v): sequential consistency fill across days.
    let days = if let Some(max_gap) = config.consistency_fill_days {
        let _fill_sp = obs::span!("consistency_fill", max_gap = max_gap as u64);
        consistency_fill(&days, max_gap)
    } else {
        days
    };

    DailyDelegations {
        start: span.start,
        days,
        fallback_days,
        missing_days,
        intra_org_removed,
    }
}

/// One day's outcome inside a chunk walk.
enum DayOutcome {
    Missing,
    Served {
        delegations: Vec<Delegation>,
        removed: usize,
        fallback: bool,
    },
}

/// Where one chunk of the walk reads its days' observations.
enum Surface<'a> {
    /// Pre-rendered days: each day is reduced from scratch.
    Days(&'a [ObservationDay]),
    /// An MRT archive: a persistent [`ObservationSweep`] seeded with
    /// one full reconstruction at the chunk start, then one update-file
    /// decode per day, or one borrowed RIB scan on a RIB day. The
    /// `prefix → origin` pair map is re-reduced only for the prefixes
    /// the sweep reports changed.
    Sweep {
        sweep: Box<ObservationSweep<'a>>,
        bogons: BogonFilter,
        pairs: BTreeMap<Prefix, Asn>,
        changed_prefixes: usize,
    },
}

impl<'a> Surface<'a> {
    fn open(input: &PipelineInput<'a>) -> Surface<'a> {
        match *input {
            PipelineInput::MrtArchive(archive) => Surface::Sweep {
                sweep: Box::new(archive.sweep()),
                bogons: BogonFilter::new(),
                pairs: BTreeMap::new(),
                changed_prefixes: 0,
            },
            PipelineInput::Days(days) => Surface::Days(days),
        }
    }

    /// Day `i` of the span (date `d`) through steps (i)–(iii): its
    /// surviving prefix-origin pairs, sorted by prefix, and whether the
    /// forward fallback served it. `None` when the day has no data (a
    /// `Days` index past the end, or an unservable archive day).
    fn day_pairs(
        &mut self,
        i: usize,
        d: Date,
        config: &InferenceConfig,
    ) -> Option<(Vec<(Prefix, Asn)>, bool)> {
        match self {
            Surface::Days(days) => Some((visible_prefix_origins(days.get(i)?, config), false)),
            Surface::Sweep {
                sweep,
                bogons,
                pairs,
                changed_prefixes,
            } => {
                let delta = sweep.advance(d).ok()?;
                // Constant while the sweep stays anchored (the peer table
                // only changes on full rebuilds, where `changed` is None).
                let min_seen = config.min_monitors(sweep.num_monitors());
                match &delta.changed {
                    None => {
                        let rows = sweep.counts().iter().map(|((p, o), &n)| (*p, o, n, &[][..]));
                        *pairs = reduce_prefix_groups(bogons, min_seen, rows).collect();
                    }
                    Some(changed) => {
                        *changed_prefixes += changed.len();
                        for &p in changed {
                            let rows = sweep.routes_for(p).map(|(o, n)| (o, n, &[][..]));
                            match origin_for_prefix(bogons, min_seen, p, rows) {
                                Some(a) => pairs.insert(p, a),
                                None => pairs.remove(&p),
                            };
                        }
                    }
                }
                let fallback = matches!(delta.provenance, Provenance::FallbackRib { .. });
                Some((pairs.iter().map(|(&p, &a)| (p, a)).collect(), fallback))
            }
        }
    }
}

/// What the MRT walk's sweeps did, summed over chunks.
#[derive(Default)]
struct SweepTally {
    full_rebuilds: usize,
    rib_merges: usize,
    changed_prefixes: usize,
    lossy: LossyStats,
}

impl SweepTally {
    /// Emit the decode accounting and the sweep counters. Called once,
    /// on the calling thread after the chunk merge: workers stay silent
    /// so traces nest strictly.
    fn emit(&self) {
        self.lossy.emit();
        let add = |name: &str, n: usize| obs::metrics::counter(name).add(n as u64);
        add("delegation_sweep_full_rebuilds_total", self.full_rebuilds);
        add("delegation_sweep_rib_merges_total", self.rib_merges);
        add("delegation_sweep_changed_prefixes_total", self.changed_prefixes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpsim::observe::{render_day, VisibilityModel};
    use bgpsim::scenario::{LeaseWorld, WorldConfig};
    use bgpsim::topology::TopologyConfig;
    use nettypes::date::date;

    fn world_and_days() -> (LeaseWorld, Vec<ObservationDay>) {
        let w = LeaseWorld::generate(&WorldConfig {
            seed: 17,
            span: DateRange::new(date("2018-01-01"), date("2018-02-28")),
            topology: TopologyConfig {
                seed: 17,
                num_tier1: 4,
                num_tier2: 12,
                num_stubs: 100,
                multi_as_org_fraction: 0.15,
            },
            num_allocations: 40,
            initial_active_leases: 120,
            bgp_visible_fraction: 0.35,
            num_hijacks: 4,
            num_moas: 4,
            num_as_sets: 2,
            num_scrubbing: 2,
            ..Default::default()
        });
        let model = VisibilityModel::default();
        let days: Vec<ObservationDay> = w
            .span
            .iter()
            .map(|d| render_day(&w, &model, d))
            .collect();
        (w, days)
    }

    #[test]
    fn pipeline_runs_and_finds_delegations() {
        let (w, days) = world_and_days();
        let result = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(result.days.len() as i64, w.span.num_days());
        let total: usize = result.days.iter().map(Vec::len).sum();
        assert!(total > 0, "no delegations inferred");
        assert!(result.missing_days.is_empty());
    }

    #[test]
    fn extension_iv_reduces_counts() {
        let (w, days) = world_and_days();
        let as2org =
            As2OrgSeries::from_topology(&w.topology, w.span.start, w.span.end, 90);
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let cfg_iv = InferenceConfig {
            filter_intra_org: true,
            ..InferenceConfig::baseline()
        };
        let ext = run_pipeline(PipelineInput::Days(&days), w.span, &cfg_iv, Some(&as2org));
        assert!(ext.intra_org_removed > 0, "no intra-org delegations removed");
        let base_total: usize = base.days.iter().map(Vec::len).sum();
        let ext_total: usize = ext.days.iter().map(Vec::len).sum();
        assert!(ext_total < base_total);
        // And nothing intra-org survives.
        for day in &ext.days {
            for d in day {
                assert_ne!(
                    w.topology.org_of(d.delegator),
                    w.topology.org_of(d.delegatee),
                    "intra-org delegation survived: {d:?}"
                );
            }
        }
    }

    #[test]
    fn extension_v_smooths_onoff_patterns() {
        let (w, days) = world_and_days();
        let base = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        let cfg_v = InferenceConfig {
            consistency_fill_days: Some(10),
            ..InferenceConfig::baseline()
        };
        let filled = run_pipeline(PipelineInput::Days(&days), w.span, &cfg_v, None);
        // The day-to-day jumpiness must drop (first-difference
        // variance — the fill cannot remove the slow growth trend both
        // series share).
        let diff_var = |days: &[Vec<Delegation>]| {
            let counts: Vec<f64> = days.iter().map(|d| d.len() as f64).collect();
            let diffs: Vec<f64> = counts.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
            diffs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / diffs.len() as f64
        };
        let v_base = diff_var(&base.days);
        let v_filled = diff_var(&filled.days);
        assert!(
            v_filled < 0.5 * v_base,
            "fill should cut the day-to-day variance: {v_base:.1} → {v_filled:.1}"
        );
        // Filling never removes delegations.
        for (b, f) in base.days.iter().zip(&filled.days) {
            assert!(f.len() >= b.len());
        }
    }

    /// The world's RFC 6396 archive with weekly RIBs (Jan 1, 8, 15, 22,
    /// 29, Feb 5, 12, 19, 26).
    fn mrt_archive(w: &LeaseWorld) -> CollectorArchiveV2 {
        let cfg = bgpsim::updates::ArchiveV2Config::default();
        CollectorArchiveV2::generate(w, &VisibilityModel::default(), w.span, &cfg)
            .expect("archive encodes")
    }

    #[test]
    fn archive_input_with_gaps_uses_fallback() {
        let (w, _) = world_and_days();
        let mut archive = mrt_archive(&w);
        // Punch two holes mid-window, each the day before a RIB.
        assert!(archive.drop_update_file(date("2018-01-21")));
        assert!(archive.drop_update_file(date("2018-02-11")));
        let result = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(result.fallback_days, vec![date("2018-01-21"), date("2018-02-11")]);
        assert!(result.missing_days.is_empty());
        assert_eq!(result.days.len() as i64, w.span.num_days());
    }

    #[test]
    fn trailing_gap_reported_missing() {
        let (w, days) = world_and_days();
        let mut archive = mrt_archive(&w);
        // No file covers the last three days.
        assert!(archive.drop_rib(date("2018-02-26")));
        for d in ["2018-02-26", "2018-02-27", "2018-02-28"] {
            assert!(archive.drop_update_file(date(d)));
        }
        let result = run_pipeline(
            PipelineInput::MrtArchive(&archive),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(result.missing_days.len(), 3);
        assert_eq!(result.missing_days[2], w.span.end);
        // Past-the-end days are missing for pre-rendered input too.
        let short = run_pipeline(
            PipelineInput::Days(&days[..days.len() - 3]),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert_eq!(short.missing_days, result.missing_days);
    }

    #[test]
    fn on_accessor() {
        let (w, days) = world_and_days();
        let result = run_pipeline(
            PipelineInput::Days(&days),
            w.span,
            &InferenceConfig::baseline(),
            None,
        );
        assert!(result.on(w.span.start).is_some());
        assert!(result.on(w.span.end).is_some());
        assert!(result.on(w.span.end + 1).is_none());
        assert!(result.on(w.span.start - 1).is_none());
    }

    #[test]
    #[should_panic(expected = "extension (iv) requires")]
    fn ext_iv_without_mapping_panics() {
        let (w, days) = world_and_days();
        let cfg = InferenceConfig {
            filter_intra_org: true,
            ..InferenceConfig::baseline()
        };
        let _ = run_pipeline(PipelineInput::Days(&days), w.span, &cfg, None);
    }
}
