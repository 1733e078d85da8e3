//! An independent from-scratch reconstruction of one archive day: the
//! test oracle for `bgpsim::updates::ObservationSweep`.
//!
//! §4: *"we use the RIB snapshot at 0:00 UTC+0 and all update files for
//! that day. If an update file is missing, we additionally download the
//! first available rib snapshot afterward."* Every day is rebuilt from
//! the latest RIB at or before it, through the owned decoders
//! (`decode_file_lossy`, `decode_attributes`, `origin_from_attributes`)
//! only; nothing here shares reconstruction code with the sweep, whose
//! RIB days go through the borrowed `RibReader` instead.
//!
//! The rules, each applied directly:
//! - each peer table restarts the state, and RIB entries before the
//!   first table are dropped;
//! - the last write of a (peer, prefix) wins;
//! - out-of-range peer indexes and entries with no origin are skipped;
//! - update peers are identified by (IP, ASN);
//! - update records apply in timestamp order;
//! - a missing update file means the first RIB at or after it serves
//!   the day.

use bgpsim::bgp::{decode_attributes, origin_from_attributes, BgpMessage};
use bgpsim::mrt2::{decode_file_lossy, MrtRecord, PeerEntry};
use bgpsim::observe::{ObservationDay, RouteObservation};
use bgpsim::updates::{ArchiveError, CollectorArchiveV2, PeerRoutes, Provenance};
use nettypes::asn::{Asn, Origin};
use nettypes::date::Date;
use nettypes::prefix::Prefix;
use std::collections::{BTreeMap, HashMap};

/// One reconstructed day: per-peer routing state.
#[derive(Clone, Debug)]
pub struct DayView {
    /// The requested date.
    pub date: Date,
    /// How the state was obtained.
    pub provenance: Provenance,
    /// Peer table (index-aligned with `peer_routes`).
    pub peers: Vec<PeerEntry>,
    /// For each peer, prefix → origin.
    pub peer_routes: PeerRoutes,
}

impl DayView {
    /// The paper's observation surface: distinct (prefix, origin) pairs
    /// with the number of peers holding each, ordered by pair.
    pub fn to_observation_day(&self) -> ObservationDay {
        let mut counts: BTreeMap<(Prefix, &Origin), u16> = BTreeMap::new();
        for routes in &self.peer_routes {
            for (p, o) in routes {
                *counts.entry((*p, o)).or_default() += 1;
            }
        }
        ObservationDay {
            date: self.date,
            num_monitors: u16::try_from(self.peers.len()).expect("u16-counted peer table"),
            routes: counts
                .into_iter()
                .map(|((prefix, origin), monitors_seen)| RouteObservation {
                    prefix,
                    origin: origin.clone(),
                    monitors_seen,
                    path: Vec::new().into(),
                    class: None,
                })
                .collect(),
        }
    }
}

/// Reconstruct `date` from scratch per the paper's rules.
pub fn day_view(archive: &CollectorArchiveV2, date: Date) -> Result<DayView, ArchiveError> {
    let ribs: Vec<Date> = archive.rib_dates().collect();
    let Some(&rib_date) = ribs.iter().rev().find(|&&r| r <= date) else {
        return Err(if ribs.is_empty() {
            ArchiveError::NoRibAvailable(date)
        } else {
            ArchiveError::OutOfRange(date)
        });
    };
    let (peers, mut peer_routes) =
        load_rib(archive, rib_date).ok_or(ArchiveError::NoRibAvailable(date))?;
    let mut d = rib_date.succ();
    while d <= date {
        let Some(bytes) = archive.update_bytes(d) else {
            let Some(&next) = ribs.iter().find(|&&r| r >= d) else {
                return Err(ArchiveError::NoRibAvailable(d));
            };
            let (peers, peer_routes) =
                load_rib(archive, next).ok_or(ArchiveError::NoRibAvailable(next))?;
            return Ok(DayView {
                date,
                provenance: Provenance::FallbackRib { rib_date: next },
                peers,
                peer_routes,
            });
        };
        apply_updates(bytes, &peers, &mut peer_routes);
        d = d.succ();
    }
    let provenance = if rib_date == date {
        Provenance::Exact
    } else {
        Provenance::Reconstructed { rib_date }
    };
    Ok(DayView {
        date,
        provenance,
        peers,
        peer_routes,
    })
}

/// The state a RIB file holds, or `None` when it has no (or an empty)
/// peer table.
fn load_rib(archive: &CollectorArchiveV2, d: Date) -> Option<(Vec<PeerEntry>, PeerRoutes)> {
    let (records, _) = decode_file_lossy(archive.rib_bytes(d)?);
    let mut state: Option<(Vec<PeerEntry>, PeerRoutes)> = None;
    for rec in records {
        match rec.record {
            MrtRecord::PeerIndexTable(t) => {
                let n = t.peers.len();
                state = Some((t.peers, vec![BTreeMap::new(); n]));
            }
            MrtRecord::RibIpv4Unicast(r) => {
                let Some((_, routes)) = &mut state else {
                    continue;
                };
                for e in r.entries {
                    let origin = decode_attributes(&e.attributes)
                        .ok()
                        .and_then(|attrs| origin_from_attributes(&attrs));
                    if let (Some(peer), Some(origin)) =
                        (routes.get_mut(usize::from(e.peer_index)), origin)
                    {
                        peer.insert(r.prefix, origin);
                    }
                }
            }
            _ => {}
        }
    }
    state.filter(|(peers, _)| !peers.is_empty())
}

/// Apply one update file to per-peer state.
fn apply_updates(bytes: &[u8], peers: &[PeerEntry], routes: &mut PeerRoutes) {
    let (mut records, _) = decode_file_lossy(bytes);
    // Stable: records with equal timestamps keep their file order.
    records.sort_by_key(|r| r.timestamp);
    let index_of: HashMap<(u32, Asn), usize> = peers
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.ip, p.asn), i))
        .collect();
    for rec in records {
        let MrtRecord::Bgp4mpMessage(m) = rec.record else {
            continue;
        };
        let Some(&pi) = index_of.get(&(m.peer_ip, m.peer_as)) else {
            continue;
        };
        let BgpMessage::Update(u) = m.message else {
            continue;
        };
        for w in &u.withdrawn {
            routes[pi].remove(w);
        }
        if let Some(origin) = origin_from_attributes(&u.attributes) {
            for p in u.nlri {
                routes[pi].insert(p, origin.clone());
            }
        }
    }
}
