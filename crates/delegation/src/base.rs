//! Steps (i)–(iv) of the per-day inference.

use crate::config::InferenceConfig;
use bgpsim::observe::{ObservationDay, RouteObservation};
use nettypes::asn::{Asn, Origin};
use nettypes::bogons::{route_is_clean, BogonFilter};
use nettypes::prefix::Prefix;
use nettypes::trie::PrefixTrie;
use serde::{Deserialize, Serialize};

/// An inferred delegation `P'_{S,T}`: S originates the covering P and
/// delegates the more-specific P' to T.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct Delegation {
    /// The delegated (more-specific) prefix P'.
    pub prefix: Prefix,
    /// The covering prefix P announced by the delegator.
    pub parent: Prefix,
    /// The delegator AS S.
    pub delegator: Asn,
    /// The delegatee AS T.
    pub delegatee: Asn,
}

impl Delegation {
    /// The conflict identity used by extension (v): a delegation
    /// conflicts with another if the same P' goes to a different T.
    pub fn key(&self) -> (Prefix, Asn, Asn) {
        (self.prefix, self.delegator, self.delegatee)
    }
}

/// Sanitize and reduce a day's observations to globally-visible,
/// single-origin prefix-origin pairs (steps i–iii plus the route
/// sanitization from §4: no bogons, no reserved ASNs, no AS-path
/// loops), sorted by prefix.
pub fn visible_prefix_origins(
    day: &ObservationDay,
    config: &InferenceConfig,
) -> Vec<(Prefix, Asn)> {
    let mut rows: Vec<&RouteObservation> = day.routes.iter().collect();
    rows.sort_by_key(|r| r.prefix);
    let rows = rows
        .into_iter()
        .map(|r| (r.prefix, &r.origin, r.monitors_seen, &r.path[..]));
    reduce_prefix_groups(&BogonFilter::new(), config.min_monitors(day.num_monitors), rows)
        .collect()
}

/// [`origin_for_prefix`] over each run of same-prefix rows: the
/// surviving `(prefix, origin)` pairs, in run order. Rows must be
/// grouped by prefix, as in any prefix-sorted surface.
pub(crate) fn reduce_prefix_groups<'a>(
    bogons: &'a BogonFilter,
    min_seen: u16,
    rows: impl Iterator<Item = (Prefix, &'a Origin, u16, &'a [Asn])> + 'a,
) -> impl Iterator<Item = (Prefix, Asn)> + 'a {
    let mut rows = rows.peekable();
    std::iter::from_fn(move || loop {
        let p = rows.peek()?.0;
        let group = std::iter::from_fn(|| rows.next_if(|r| r.0 == p));
        let group = group.map(|(_, origin, seen, path)| (origin, seen, path));
        if let Some(a) = origin_for_prefix(bogons, min_seen, p, group) {
            return Some((p, a));
        }
    })
}

/// Steps (ii)–(iii) plus the §4 route sanitization for one prefix,
/// fed its `(origin, monitors seen, AS path)` rows in any order (an
/// archive surface carries no paths and passes `&[]`).
///
/// A row seen by fewer than `min_seen` monitors is ignored (step ii),
/// and so is a single-origin row whose prefix is bogon, whose path has
/// a reserved ASN or a loop, or whose origin is reserved. The prefix
/// is dropped (`None`) when a remaining row is an AS_SET or the
/// remaining rows name more than one origin AS (step iii); otherwise
/// its one origin survives. Every row is consumed either way.
pub fn origin_for_prefix<'a>(
    bogons: &BogonFilter,
    min_seen: u16,
    prefix: Prefix,
    rows: impl IntoIterator<Item = (&'a Origin, u16, &'a [Asn])>,
) -> Option<Asn> {
    let mut origin = None;
    let mut dropped = false;
    for (o, seen, path) in rows {
        if seen < min_seen {
            continue; // step (ii)
        }
        match o {
            Origin::Set(_) => dropped = true, // step (iii), AS_SET
            Origin::Single(asn) => {
                if !route_is_clean(bogons, &prefix, path) || asn.is_reserved() {
                    continue;
                }
                if origin.is_some_and(|a| a != *asn) {
                    dropped = true; // step (iii), MOAS
                }
                origin = Some(*asn);
            }
        }
    }
    if dropped {
        None
    } else {
        origin
    }
}

/// Step (iv) on already-reduced pairs: the delegator of P' is the
/// origin of the *most specific* covering prefix with a different
/// origin. Output is sorted, so pair order does not matter.
pub fn infer_from_pairs(pairs: &[(Prefix, Asn)]) -> Vec<Delegation> {
    let trie: PrefixTrie<Asn> = pairs.iter().map(|&(p, a)| (p, a)).collect();

    let mut out = Vec::new();
    for &(prefix, delegatee) in pairs {
        let covering = trie.covering(&prefix);
        for (parent, &delegator) in covering.into_iter().rev() {
            if delegator != delegatee {
                out.push(Delegation {
                    prefix,
                    parent,
                    delegator,
                    delegatee,
                });
                break;
            }
        }
    }
    out.sort();
    out
}

/// Step (iv): infer delegations from the surviving prefix-origin
/// pairs.
pub fn infer_base_delegations(day: &ObservationDay, config: &InferenceConfig) -> Vec<Delegation> {
    let pairs = visible_prefix_origins(day, config);
    infer_from_pairs(&pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettypes::date::Date;
    use nettypes::prefix::pfx;

    fn obs(prefix: &str, origin: u32, seen: u16) -> RouteObservation {
        RouteObservation {
            prefix: pfx(prefix),
            origin: Origin::Single(Asn(origin)),
            monitors_seen: seen,
            path: vec![].into(),
            class: None,
        }
    }

    fn day(routes: Vec<RouteObservation>) -> ObservationDay {
        ObservationDay {
            date: Date::from_days(17532),
            num_monitors: 40,
            routes,
        }
    }

    #[test]
    fn basic_inference() {
        let d = day(vec![obs("64.0.0.0/16", 1001, 40), obs("64.0.1.0/24", 1002, 38)]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        assert_eq!(
            delegs,
            vec![Delegation {
                prefix: pfx("64.0.1.0/24"),
                parent: pfx("64.0.0.0/16"),
                delegator: Asn(1001),
                delegatee: Asn(1002),
            }]
        );
    }

    #[test]
    fn visibility_threshold_drops_local_routes() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 19), // below 50 % of 40
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
        // With a 25 % threshold it appears.
        let lax = InferenceConfig {
            visibility_threshold: 0.25,
            ..cfg
        };
        assert_eq!(infer_base_delegations(&d, &lax).len(), 1);
    }

    #[test]
    fn moas_prefixes_dropped() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 38),
            obs("64.0.1.0/24", 1003, 35), // MOAS on the more-specific
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
        // MOAS on the parent also kills the delegation (parent pair is
        // dropped, no covering prefix remains).
        let d2 = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.0.0/16", 1009, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        assert!(infer_base_delegations(&d2, &cfg).is_empty());
    }

    #[test]
    fn as_set_prefixes_dropped() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            RouteObservation {
                prefix: pfx("64.0.1.0/24"),
                origin: Origin::Set(vec![Asn(1002), Asn(1003)]),
                monitors_seen: 38,
                path: vec![].into(),
                class: None,
            },
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn nearest_covering_origin_is_delegator() {
        let d = day(vec![
            obs("64.0.0.0/12", 1000, 40),
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        let d24 = delegs.iter().find(|d| d.prefix == pfx("64.0.1.0/24")).unwrap();
        assert_eq!(d24.delegator, Asn(1001));
        assert_eq!(d24.parent, pfx("64.0.0.0/16"));
        // The /16 itself is delegated by the /12.
        let d16 = delegs.iter().find(|d| d.prefix == pfx("64.0.0.0/16")).unwrap();
        assert_eq!(d16.delegator, Asn(1000));
    }

    #[test]
    fn same_origin_more_specific_is_not_a_delegation() {
        // Traffic engineering: same AS announces both.
        let d = day(vec![obs("64.0.0.0/16", 1001, 40), obs("64.0.1.0/24", 1001, 38)]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn skips_same_origin_ancestor_to_find_delegator() {
        // /24 by AS B; /16 by AS B (its own TE); /12 by AS A.
        let d = day(vec![
            obs("64.0.0.0/12", 1000, 40),
            obs("64.0.0.0/16", 1002, 40),
            obs("64.0.1.0/24", 1002, 38),
        ]);
        let cfg = InferenceConfig::baseline();
        let delegs = infer_base_delegations(&d, &cfg);
        let d24 = delegs.iter().find(|d| d.prefix == pfx("64.0.1.0/24")).unwrap();
        assert_eq!(d24.delegator, Asn(1000));
        assert_eq!(d24.parent, pfx("64.0.0.0/12"));
    }

    #[test]
    fn bogon_and_reserved_asn_routes_sanitized() {
        let d = day(vec![
            obs("10.0.0.0/8", 1001, 40),      // bogon prefix
            obs("10.0.1.0/24", 1002, 38),     // bogon prefix
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 64512, 38),    // reserved origin ASN
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    #[test]
    fn path_loop_routes_sanitized() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            RouteObservation {
                prefix: pfx("64.0.1.0/24"),
                origin: Origin::Single(Asn(1002)),
                monitors_seen: 38,
                path: vec![Asn(1050), Asn(1060), Asn(1050), Asn(1002)].into(), // loop
                class: None,
            },
        ]);
        let cfg = InferenceConfig::baseline();
        assert!(infer_base_delegations(&d, &cfg).is_empty());
    }

    proptest::proptest! {
        /// The trie-based inference equals an O(n²) brute-force
        /// reference implementation of steps (i)–(iv) and the §4
        /// sanitization, each rule written out on its own, on arbitrary
        /// observation days: AS_SET and MOAS prefixes, reserved
        /// origins, bogon prefixes, and paths with prepends, loops or
        /// reserved hops. The result does not depend on row order.
        #[test]
        fn prop_matches_bruteforce_reference(
            routes in proptest::collection::vec(
                (
                    // 64.0.0.0/8 (clean) three times in four, else 10.0.0.0/8 (bogon).
                    proptest::sample::select(vec![0x4000_0000u32, 0x4000_0000, 0x4000_0000, 0x0A00_0000]),
                    0u32..32,
                    proptest::sample::select(vec![16u8, 20, 22, 24]),
                    // origin kind: 0 = AS_SET, 1 = reserved ASN, else a
                    // public ASN from a small pool (so MOAS is common).
                    (0u8..10, 1000u32..1006),
                    1u16..=40,
                    // path kind: < 3 = no path, 5 = reserved hop, else
                    // hops drawn from a small pool (prepends and loops).
                    (0u8..6, proptest::collection::vec(2000u32..2004, 0..4)),
                    proptest::any::<u32>(),
                ),
                0..40
            ),
            threshold in proptest::sample::select(vec![0.1f64, 0.5, 0.9]),
        ) {
            use std::collections::BTreeSet;
            let rows: Vec<(u32, RouteObservation)> = routes
                .iter()
                .map(|(space, k, len, (kind, asn), seen, (path_kind, hops), key)| {
                    let origin = match kind {
                        0 => Origin::Set(vec![Asn(*asn), Asn(asn + 1)]),
                        1 => Origin::Single(Asn(64512 + asn % 8)),
                        _ => Origin::Single(Asn(*asn)),
                    };
                    let mut path: Vec<Asn> = Vec::new();
                    if let (Origin::Single(o), 3..) = (&origin, path_kind) {
                        path.extend(hops.iter().map(|&h| Asn(h)));
                        if *path_kind == 5 {
                            path.push(Asn(64513));
                        }
                        path.push(*o);
                    }
                    let route = RouteObservation {
                        prefix: Prefix::new_unchecked_masked(space | (k << 11), *len),
                        origin,
                        monitors_seen: *seen,
                        path: path.into(),
                        class: None,
                    };
                    (*key, route)
                })
                .collect();
            let day = day(rows.iter().map(|(_, r)| r.clone()).collect());
            let cfg = InferenceConfig {
                visibility_threshold: threshold,
                ..InferenceConfig::baseline()
            };
            let fast = infer_base_delegations(&day, &cfg);

            // Any permutation of the rows infers the same delegations.
            let mut shuffled = rows.clone();
            shuffled.sort_by_key(|(key, _)| *key);
            let permuted = ObservationDay {
                routes: shuffled.into_iter().map(|(_, r)| r).collect(),
                ..day.clone()
            };
            proptest::prop_assert_eq!(&infer_base_delegations(&permuted, &cfg), &fast);

            // --- brute force ---
            let min_seen = ((threshold * 40.0).ceil() as u16).max(1);
            let bogon = |p: &Prefix| pfx("10.0.0.0/8").covers(p);
            // A loop: one ASN in two runs separated by another ASN.
            let has_loop = |path: &[Asn]| {
                (0..path.len()).any(|i| {
                    (i + 1..path.len())
                        .any(|j| path[i] == path[j] && path[i..j].iter().any(|&a| a != path[i]))
                })
            };
            let prefixes: BTreeSet<Prefix> = day.routes.iter().map(|r| r.prefix).collect();
            let mut pairs: Vec<(Prefix, Asn)> = Vec::new();
            for p in prefixes {
                // Step (ii): globally visible rows of this prefix.
                let visible: Vec<&RouteObservation> = day
                    .routes
                    .iter()
                    .filter(|r| r.prefix == p && r.monitors_seen >= min_seen)
                    .collect();
                // Step (iii), AS_SET: any visible AS_SET drops the prefix.
                if visible.iter().any(|r| matches!(r.origin, Origin::Set(_))) {
                    continue;
                }
                // §4 sanitization: bogon prefix, reserved origin,
                // reserved hop, path loop.
                let mut origins: BTreeSet<Asn> = BTreeSet::new();
                for r in visible {
                    let Origin::Single(a) = r.origin else { continue };
                    if bogon(&p)
                        || a.is_reserved()
                        || r.path.iter().any(Asn::is_reserved)
                        || has_loop(&r.path)
                    {
                        continue;
                    }
                    origins.insert(a);
                }
                // Step (iii), MOAS: exactly one clean origin survives.
                if origins.len() == 1 {
                    pairs.push((p, origins.into_iter().next().unwrap()));
                }
            }
            let mut slow = Vec::new();
            for &(p, t) in &pairs {
                // Most specific covering pair with a different origin.
                let mut best: Option<(Prefix, Asn)> = None;
                for &(q, s) in &pairs {
                    if q.covers_strictly(&p) && s != t {
                        match best {
                            Some((bq, _)) if bq.len() >= q.len() => {}
                            _ => best = Some((q, s)),
                        }
                    }
                }
                if let Some((parent, delegator)) = best {
                    slow.push(Delegation { prefix: p, parent, delegator, delegatee: t });
                }
            }
            slow.sort();
            proptest::prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn prefix_origin_reduction_counts() {
        let d = day(vec![
            obs("64.0.0.0/16", 1001, 40),
            obs("64.0.1.0/24", 1002, 10), // below threshold
            obs("64.1.0.0/16", 1003, 40),
        ]);
        let pairs = visible_prefix_origins(&d, &InferenceConfig::baseline());
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn reduced_pairs_are_sorted_by_prefix() {
        // Twenty prefixes listed in descending order.
        let routes = (0..20u32)
            .rev()
            .map(|i| obs(&format!("64.{i}.0.0/16"), 1000 + i, 40))
            .collect();
        let d = day(routes);
        let pairs = visible_prefix_origins(&d, &InferenceConfig::baseline());
        assert_eq!(pairs.len(), 20);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{pairs:?}");
        assert_eq!(pairs, visible_prefix_origins(&d, &InferenceConfig::baseline()));
    }
}
