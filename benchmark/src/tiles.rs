//! The tiled grid: identical areas, so the round-level batch solver has
//! same-pattern gain systems to put in SIMD lanes.
//!
//! One 30-bus area is built once with the repo's own
//! [`pgse_grid::cases::builder`] and replicated; consecutive tiles are
//! joined in a ring by two tie lines between fixed local buses. Every
//! tile therefore has the same internal topology, the same four boundary
//! buses and the same telemetry plan — and, unlike IEEE-118 or the
//! WECC-like synthetic grid, identical Step-1 gain patterns.

use pgse_grid::cases::builder::{build, AreaPlan};
use pgse_grid::{Branch, BusKind, Network};

/// Buses per tile.
pub const TILE_BUSES: usize = 30;
/// Ring ties `(local bus in tile t, local bus in tile t+1)`.
const RING_TIES: [(usize, usize); 2] = [(7, 19), (11, 23)];

/// `n_tiles` copies of one seeded 30-bus area joined in a ring.
///
/// # Errors
/// When `n_tiles < 3` (a two-tile "ring" would duplicate its ties) or the
/// assembled network does not validate.
pub fn tiled_grid(n_tiles: usize, seed: u64) -> Result<Network, String> {
    if n_tiles < 3 {
        return Err(format!("a tile ring needs at least 3 tiles, got {n_tiles}"));
    }
    let tile = build(&AreaPlan {
        name: "tile".into(),
        bus_counts: vec![TILE_BUSES],
        area_edges: Vec::new(),
        ties_per_edge: 0,
        seed,
        load_mw: (15.0, 45.0),
        chord_fraction: 0.25,
    });

    let mut buses = Vec::with_capacity(n_tiles * TILE_BUSES);
    let mut branches = Vec::with_capacity(n_tiles * (tile.branches.len() + RING_TIES.len()));
    for t in 0..n_tiles {
        let base = t * TILE_BUSES;
        for b in &tile.buses {
            let mut bus = b.clone();
            bus.id = base + b.id;
            bus.area = t;
            // One slack for the whole ring: the other tiles keep the unit
            // at their first bus as an ordinary PV generator.
            if t > 0 && bus.kind == BusKind::Slack {
                bus.kind = BusKind::Pv;
            }
            buses.push(bus);
        }
        for br in &tile.branches {
            branches.push(Branch {
                from: base + br.from,
                to: base + br.to,
                ..br.clone()
            });
        }
    }
    for t in 0..n_tiles {
        let next = (t + 1) % n_tiles;
        for &(here, there) in &RING_TIES {
            branches.push(Branch::line(
                t * TILE_BUSES + here,
                next * TILE_BUSES + there,
                0.03,
                0.12,
                0.02,
            ));
        }
    }

    let net = Network {
        name: format!("tiles{n_tiles}x{TILE_BUSES}"),
        base_mva: tile.base_mva,
        buses,
        branches,
    };
    net.validate()
        .map_err(|e| format!("tiled grid is invalid: {e}"))?;
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgse_powerflow::{solve, PfOptions};

    #[test]
    fn tile_grid_validates_and_its_power_flow_converges() {
        let net = tiled_grid(12, 30).unwrap();
        assert_eq!(net.n_buses(), 12 * TILE_BUSES);
        assert_eq!(net.n_areas(), 12);
        assert_eq!(net.tie_lines().len(), 12 * RING_TIES.len());
        assert!(net.is_connected());
        let pf = solve(&net, &PfOptions::default()).expect("tile power flow converges");
        assert!(
            pf.vm.iter().all(|v| (0.9..1.1).contains(v)),
            "voltages stay near nominal"
        );
    }

    #[test]
    fn every_tile_has_the_same_boundary_and_degenerate_rings_are_refused() {
        let net = tiled_grid(5, 30).unwrap();
        for t in 0..5 {
            let local: Vec<usize> = net
                .boundary_buses(t)
                .into_iter()
                .map(|b| b - t * TILE_BUSES)
                .collect();
            assert_eq!(local, vec![7, 11, 19, 23]);
        }
        assert!(tiled_grid(2, 30).is_err());
    }
}
