//! Time-bounded neighbour lists (Verlet lists) for the transmit path.
//!
//! Every transmission must resolve two sets around the sender: the
//! receivers (within transmission range) and the carrier-sense set (within
//! carrier-sense range).  Resolving them from scratch means a grid-block scan
//! and one kinematic evaluation per candidate.  Instead, each node keeps a
//! [`NeighborList`]: the ids, in id order, and the exact distances of every
//! node within `carrier-sense range + SKIN_M` of it when the list was built.
//!
//! # Validity and exactness
//!
//! The engine keeps a running maximum `v` of every leg speed it has assigned.
//! Positions are continuous in time (a new leg starts where the old one
//! ended), so no node moves faster than `v` and the distance between two
//! nodes changes by at most `δ = 2·v·(now − built)` since the list was
//! built.  While `δ ≤ SKIN_M` the list is **complete**: a node missing from
//! it was more than `cs + SKIN_M + EPS_M` away at build time and is now still
//! beyond carrier-sense range.  Each entry whose stored distance lies more
//! than `δ + EPS_M` inside or outside both circles is classified without any
//! kinematic evaluation; only entries in that band get the exact
//! position-and-distance test.  `EPS_M` (1 mm) absorbs floating-point
//! rounding, which is many orders of magnitude smaller.  So resolution is
//! exact: it returns precisely the sets a direct scan returns, in id order.

use crate::time::SimTime;
use manet_wire::NodeId;

/// Extra reach of a neighbour list beyond carrier-sense range, metres.  A
/// list stays valid until the worst-case relative motion since its build
/// exceeds this skin.
pub(crate) const SKIN_M: f64 = 25.0;

/// Rounding guard, metres: classification without evaluation needs a margin
/// this much wider than the motion bound.
pub(crate) const EPS_M: f64 = 1e-3;

/// One list entry: a neighbour and its exact distance at build time.
#[derive(Debug, Clone, Copy)]
struct Neighbor {
    id: NodeId,
    dist: f64,
}

/// A node's neighbour list.  `Default` is the never-built list.
#[derive(Debug, Default)]
pub(crate) struct NeighborList {
    entries: Vec<Neighbor>,
    built: Option<SimTime>,
}

/// Radii a list resolves against, metres (`range <= cs`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Radii {
    pub range: f64,
    pub cs: f64,
}

impl Radii {
    /// The reach a list must cover when it is built.
    pub fn list_reach(self) -> f64 {
        self.cs + SKIN_M + EPS_M
    }
}

impl NeighborList {
    /// The motion bound `δ` at `now` for nodes no faster than `max_speed`,
    /// or `None` when the list must be rebuilt (never built, or `δ` past the
    /// skin).
    pub fn drift(&self, now: SimTime, max_speed: f64) -> Option<f64> {
        let delta = 2.0 * max_speed * now.since(self.built?).as_secs();
        (delta <= SKIN_M).then_some(delta)
    }

    /// Rebuild at `now`.  `scan` must report every node other than the
    /// owner within `reach` (see [`Radii::list_reach`]) with its exact
    /// distance; it may report farther nodes too, which are dropped.
    pub fn rebuild(
        &mut self,
        now: SimTime,
        reach: f64,
        scan: impl FnOnce(&mut dyn FnMut(NodeId, f64)),
    ) {
        self.entries.clear();
        let entries = &mut self.entries;
        scan(&mut |id, dist| {
            if dist <= reach {
                entries.push(Neighbor { id, dist });
            }
        });
        self.entries.sort_unstable_by_key(|n| n.id);
        self.built = Some(now);
    }

    /// Resolve the list under motion bound `delta`: call `visit(id,
    /// receives)` in id order for every node within carrier-sense range,
    /// `receives` marking those within transmission range.  `exact_sq`
    /// returns a node's current squared distance; it is called only for
    /// entries within `delta + EPS_M` of either circle.  Returns the number
    /// of exact checks made.
    pub fn resolve(
        &self,
        delta: f64,
        radii: Radii,
        mut exact_sq: impl FnMut(NodeId) -> f64,
        mut visit: impl FnMut(NodeId, bool),
    ) -> u64 {
        let margin = delta + EPS_M;
        let surely_out = radii.cs + margin;
        let surely_receives = radii.range - margin;
        let (sense_lo, sense_hi) = (radii.range + margin, radii.cs - margin);
        let (range_sq, cs_sq) = (radii.range * radii.range, radii.cs * radii.cs);
        let mut exact = 0;
        for &Neighbor { id, dist } in &self.entries {
            if dist > surely_out {
                continue;
            }
            if dist < surely_receives {
                visit(id, true);
            } else if dist > sense_lo && dist < sense_hi {
                visit(id, false);
            } else {
                exact += 1;
                let d_sq = exact_sq(id);
                if d_sq <= cs_sq {
                    visit(id, d_sq <= range_sq);
                }
            }
        }
        exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Position;
    use crate::mobility::Waypoint;
    use crate::time::Duration;
    use proptest::prelude::*;

    const RADII: Radii = Radii {
        range: 250.0,
        cs: 450.0,
    };

    /// A continuous trajectory: consecutive legs, each installed when the
    /// previous one arrives and starting from its target (after an optional
    /// pause), as the engine's waypoint hand-off does.
    struct Trajectory {
        /// `(installed at, leg)`, the first installed at time zero.
        legs: Vec<(SimTime, Waypoint)>,
    }

    impl Trajectory {
        fn position_at(&self, t: SimTime) -> Position {
            let (_, leg) = self
                .legs
                .iter()
                .rev()
                .find(|(at, _)| *at <= t)
                .expect("the first leg covers t = 0");
            leg.position_at(t)
        }

        fn max_speed(&self) -> f64 {
            self.legs.iter().map(|(_, l)| l.speed).fold(0.0, f64::max)
        }
    }

    /// `(speed, pause, dx, dy)` per leg; speed 0 pins the node for good.
    fn trajectory(start: Position, legs: &[(f64, f64, f64, f64)]) -> Trajectory {
        let mut out = Vec::new();
        let (mut from, mut at) = (start, SimTime::ZERO);
        for &(speed, pause, dx, dy) in legs {
            let leg = Waypoint {
                from,
                to: Position::new(from.x + dx, from.y + dy),
                speed,
                start: at + Duration::from_secs(pause),
                epoch: out.len() as u64,
            };
            out.push((at, leg));
            if speed <= 0.0 {
                break;
            }
            at = leg.arrival_time();
            from = leg.to;
        }
        Trajectory { legs: out }
    }

    /// The direct scan the list must reproduce: `(id, receives)` for every
    /// node within carrier-sense range of node 0, in id order.
    fn direct(nodes: &[Trajectory], t: SimTime) -> Vec<(NodeId, bool)> {
        let me = nodes[0].position_at(t);
        let (range_sq, cs_sq) = (RADII.range * RADII.range, RADII.cs * RADII.cs);
        (1..nodes.len())
            .filter_map(|i| {
                let d_sq = nodes[i].position_at(t).distance_sq(me);
                (d_sq <= cs_sq).then_some((NodeId(i as u16), d_sq <= range_sq))
            })
            .collect()
    }

    fn build(nodes: &[Trajectory], t: SimTime) -> NeighborList {
        let me = nodes[0].position_at(t);
        let mut list = NeighborList::default();
        list.rebuild(t, RADII.list_reach(), |push| {
            for (i, node) in nodes.iter().enumerate().skip(1) {
                push(NodeId(i as u16), node.position_at(t).distance_sq(me).sqrt());
            }
        });
        list
    }

    fn resolved(
        list: &NeighborList,
        nodes: &[Trajectory],
        t: SimTime,
        delta: f64,
    ) -> Vec<(NodeId, bool)> {
        let me = nodes[0].position_at(t);
        let mut got = Vec::new();
        list.resolve(
            delta,
            RADII,
            |id| nodes[id.index()].position_at(t).distance_sq(me),
            |id, receives| got.push((id, receives)),
        );
        got
    }

    /// `(speed, pause, dx, dy)`: a quarter of the legs stand still and a
    /// quarter start without a pause.
    fn leg() -> impl Strategy<Value = (f64, f64, f64, f64)> {
        let speed = (0..4u8, 0.5..30.0f64);
        let pause = (0..4u8, 0.0..3.0f64);
        (speed, pause, -200.0..200.0f64, -200.0..200.0f64).prop_map(
            |((still, speed), (unpaused, pause), dx, dy)| {
                let speed = if still == 0 { 0.0 } else { speed };
                let pause = if unpaused == 0 { 0.0 } else { pause };
                (speed, pause, dx, dy)
            },
        )
    }

    proptest! {
        /// Random legs with pauses and zero speeds, some nodes starting
        /// exactly on the range and carrier-sense circles, queried at times
        /// up to the validity horizon: the list resolves to the direct scan.
        #[test]
        fn list_resolution_matches_a_direct_scan(
            starts in proptest::collection::vec(
                (0..4u8, 0.0..std::f64::consts::TAU, 0.0..520.0f64), 1..24),
            legs in proptest::collection::vec(proptest::collection::vec(leg(), 1..5), 24..25),
            build_at in 0.0..5.0f64,
            fractions in proptest::collection::vec(0.0..1.0f64, 1..8),
        ) {
            let origin = Position::new(600.0, 600.0);
            let mut nodes = vec![trajectory(origin, &legs[0])];
            for (k, &(kind, angle, r)) in starts.iter().enumerate() {
                // Kinds 0 and 1 start exactly on a circle, kind 2 in the
                // skin just beyond carrier-sense range.
                let r = match kind {
                    0 => RADII.range,
                    1 => RADII.cs,
                    2 => RADII.cs + (r / 520.0) * (SKIN_M + 1.0),
                    _ => r,
                };
                let start = Position::new(origin.x + r * angle.cos(), origin.y + r * angle.sin());
                nodes.push(trajectory(start, &legs[k + 1]));
            }
            let v = nodes.iter().map(Trajectory::max_speed).fold(0.0, f64::max);
            let built = SimTime::from_secs(build_at);
            let list = build(&nodes, built);
            prop_assert_eq!(resolved(&list, &nodes, built, 0.0), direct(&nodes, built));
            for f in fractions.into_iter().chain([1.0]) {
                // Up to the horizon where δ reaches the skin exactly.
                let span = if v > 0.0 { f * SKIN_M / (2.0 * v) } else { f * 100.0 };
                let t = built + Duration::from_secs(span);
                let Some(delta) = list.drift(t, v) else {
                    // Only rounding at the horizon itself may tip δ past it.
                    prop_assert!(f > 0.999, "list expired inside its horizon");
                    continue;
                };
                prop_assert_eq!(resolved(&list, &nodes, t, delta), direct(&nodes, t));
            }
        }
    }

    #[test]
    fn static_nodes_on_both_circles_resolve_exactly() {
        let origin = Position::new(0.0, 0.0);
        let at = |x: f64| trajectory(Position::new(x, 0.0), &[(0.0, 0.0, 0.0, 0.0)]);
        let nodes = vec![
            trajectory(origin, &[(0.0, 0.0, 0.0, 0.0)]),
            at(RADII.range),
            at(RADII.range + 1e-9),
            at(RADII.cs),
            at(RADII.cs + 1e-9),
            at(100.0),
        ];
        let list = build(&nodes, SimTime::ZERO);
        let t = SimTime::from_secs(1000.0);
        let delta = list.drift(t, 0.0).expect("static lists never expire");
        assert_eq!(delta, 0.0);
        let got = resolved(&list, &nodes, t, delta);
        assert_eq!(got, direct(&nodes, t));
        assert_eq!(
            got,
            vec![
                (NodeId(1), true),
                (NodeId(2), false),
                (NodeId(3), false),
                (NodeId(5), true)
            ]
        );
    }

    #[test]
    fn only_band_entries_get_an_exact_check() {
        let mut list = NeighborList::default();
        list.rebuild(SimTime::ZERO, RADII.list_reach(), |push| {
            push(NodeId(1), 100.0); // surely receives
            push(NodeId(2), 300.0); // surely senses only
            push(NodeId(3), 470.0); // surely out
            push(NodeId(4), 255.0); // near the range circle
            push(NodeId(5), 445.0); // near the carrier-sense circle
            push(NodeId(6), 600.0); // beyond the list reach: dropped
        });
        let mut checked = Vec::new();
        let exact = list.resolve(
            10.0,
            RADII,
            |id| {
                checked.push(id);
                f64::INFINITY
            },
            |_, _| {},
        );
        assert_eq!(exact, 2);
        assert_eq!(checked, vec![NodeId(4), NodeId(5)]);
    }

    #[test]
    fn list_expires_exactly_when_the_motion_bound_passes_the_skin() {
        let mut list = NeighborList::default();
        assert_eq!(list.drift(SimTime::ZERO, 0.0), None, "never built");
        let built = SimTime::from_secs(4.0);
        list.rebuild(built, RADII.list_reach(), |_| {});
        let v = 12.5; // δ reaches the 25 m skin after exactly 1 s
        assert_eq!(list.drift(built, v), Some(0.0));
        let horizon = built + Duration::from_secs(SKIN_M / (2.0 * v));
        assert_eq!(list.drift(horizon, v), Some(SKIN_M));
        let past = SimTime::from_secs(f64::from_bits(horizon.as_secs().to_bits() + 1));
        assert_eq!(list.drift(past, v), None);
        assert!(list.drift(SimTime::from_secs(1e9), 0.0).is_some());
    }
}
