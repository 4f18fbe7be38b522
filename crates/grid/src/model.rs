//! The power-network data model.
//!
//! Quantities are in the per-unit system on the network's MVA base, except
//! where a constructor explicitly takes megawatts (converted on ingest).
//! Buses are indexed densely `0..n`; the paper's *subsystems* are modelled
//! as bus areas, and branches whose endpoints lie in different areas are the
//! *tie lines* of the decomposition.

use serde::{Deserialize, Serialize};

/// Role of a bus in the power-flow problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusKind {
    /// Reference bus: fixed voltage magnitude and angle.
    Slack,
    /// Generator bus: fixed active injection and voltage magnitude.
    Pv,
    /// Load bus: fixed active and reactive injection.
    Pq,
}

/// A network bus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bus {
    /// External identifier (e.g. the IEEE case bus number).
    pub id: usize,
    /// Power-flow role.
    pub kind: BusKind,
    /// Active load demand (p.u.).
    pub pd: f64,
    /// Reactive load demand (p.u.).
    pub qd: f64,
    /// Active generation (p.u.); meaningful for `Slack`/`Pv` buses.
    pub pg: f64,
    /// Reactive generation (p.u.); solved by the power flow.
    pub qg: f64,
    /// Shunt conductance (p.u.).
    pub gs: f64,
    /// Shunt susceptance (p.u.).
    pub bs: f64,
    /// Voltage magnitude setpoint (p.u.); applies to `Slack`/`Pv` buses.
    pub vm_setpoint: f64,
    /// Area (subsystem) this bus belongs to, `0..n_areas`.
    pub area: usize,
}

impl Bus {
    /// A PQ load bus with the given per-unit demand.
    pub fn load(id: usize, area: usize, pd: f64, qd: f64) -> Self {
        Bus {
            id,
            kind: BusKind::Pq,
            pd,
            qd,
            pg: 0.0,
            qg: 0.0,
            gs: 0.0,
            bs: 0.0,
            vm_setpoint: 1.0,
            area,
        }
    }

    /// Net scheduled active injection `pg − pd` (p.u.).
    pub fn p_injection(&self) -> f64 {
        self.pg - self.pd
    }

    /// Net scheduled reactive injection `qg − qd` (p.u.).
    pub fn q_injection(&self) -> f64 {
        self.qg - self.qd
    }
}

/// A transmission branch (line or transformer) in the π model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Branch {
    /// From-bus index (dense, `0..n`).
    pub from: usize,
    /// To-bus index (dense, `0..n`).
    pub to: usize,
    /// Series resistance (p.u.).
    pub r: f64,
    /// Series reactance (p.u.).
    pub x: f64,
    /// Total line charging susceptance (p.u.).
    pub b: f64,
    /// Off-nominal tap ratio at the from side; `1.0` for lines.
    pub tap: f64,
    /// Phase-shift angle (radians); `0.0` for lines.
    pub shift: f64,
}

impl Branch {
    /// A plain transmission line.
    pub fn line(from: usize, to: usize, r: f64, x: f64, b: f64) -> Self {
        Branch { from, to, r, x, b, tap: 1.0, shift: 0.0 }
    }

    /// A transformer with off-nominal tap ratio.
    pub fn transformer(from: usize, to: usize, r: f64, x: f64, tap: f64) -> Self {
        Branch { from, to, r, x, b: 0.0, tap, shift: 0.0 }
    }
}

/// A complete power network (one interconnection).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    /// Human-readable case name.
    pub name: String,
    /// System MVA base.
    pub base_mva: f64,
    /// Buses, densely indexed.
    pub buses: Vec<Bus>,
    /// Branches between dense bus indices.
    pub branches: Vec<Branch>,
}

impl Network {
    /// Number of buses.
    pub fn n_buses(&self) -> usize {
        self.buses.len()
    }

    /// Number of branches.
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// The network with only the branches whose breaker is closed, in the
    /// original branch order (bus set unchanged). Its admittances are the
    /// values [`crate::Ybus::with_branch_status`] holds on the unfiltered
    /// network's pattern, where an open branch is an exact zero.
    ///
    /// # Panics
    /// Panics if `closed.len() != self.n_branches()`.
    pub fn with_branch_status(&self, closed: &[bool]) -> Network {
        assert_eq!(closed.len(), self.n_branches(), "status per branch");
        Network {
            name: self.name.clone(),
            base_mva: self.base_mva,
            buses: self.buses.clone(),
            branches: self
                .branches
                .iter()
                .enumerate()
                .filter(|(k, _)| closed[*k])
                .map(|(_, br)| br.clone())
                .collect(),
        }
    }

    /// Number of distinct areas (subsystems); areas are `0..n_areas`.
    pub fn n_areas(&self) -> usize {
        self.buses.iter().map(|b| b.area + 1).max().unwrap_or(0)
    }

    /// The dense index of the slack bus.
    ///
    /// # Panics
    /// Panics if the network has no slack bus (invalid case).
    pub fn slack(&self) -> usize {
        self.buses
            .iter()
            .position(|b| b.kind == BusKind::Slack)
            .expect("network has no slack bus")
    }

    /// Bus indices belonging to `area`, in ascending order.
    pub fn area_buses(&self, area: usize) -> Vec<usize> {
        (0..self.n_buses()).filter(|&i| self.buses[i].area == area).collect()
    }

    /// Branch indices whose endpoints lie in different areas — the *tie
    /// lines* of the decomposition.
    pub fn tie_lines(&self) -> Vec<usize> {
        (0..self.n_branches())
            .filter(|&k| {
                let br = &self.branches[k];
                self.buses[br.from].area != self.buses[br.to].area
            })
            .collect()
    }

    /// Branch indices fully inside `area`.
    pub fn internal_branches(&self, area: usize) -> Vec<usize> {
        (0..self.n_branches())
            .filter(|&k| {
                let br = &self.branches[k];
                self.buses[br.from].area == area && self.buses[br.to].area == area
            })
            .collect()
    }

    /// Boundary buses of `area`: buses in the area that terminate at least
    /// one tie line.
    pub fn boundary_buses(&self, area: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .tie_lines()
            .into_iter()
            .flat_map(|k| {
                let br = &self.branches[k];
                [br.from, br.to]
            })
            .filter(|&i| self.buses[i].area == area)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pairs of areas connected by at least one tie line, each pair listed
    /// once with the smaller area first — the edges of the paper's
    /// decomposition graph (Fig. 3).
    pub fn area_adjacency(&self) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = self
            .tie_lines()
            .into_iter()
            .map(|k| {
                let br = &self.branches[k];
                let (a, b) = (self.buses[br.from].area, self.buses[br.to].area);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Validates structural sanity: branch endpoints in range, positive
    /// reactances, at least one slack, connected bus graph.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_buses();
        if n == 0 {
            return Err("network has no buses".into());
        }
        if !self.buses.iter().any(|b| b.kind == BusKind::Slack) {
            return Err("network has no slack bus".into());
        }
        for (k, br) in self.branches.iter().enumerate() {
            if br.from >= n || br.to >= n {
                return Err(format!("branch {k} endpoint out of range"));
            }
            if br.from == br.to {
                return Err(format!("branch {k} is a self-loop"));
            }
            if br.x <= 0.0 {
                return Err(format!("branch {k} has non-positive reactance"));
            }
            if br.tap <= 0.0 {
                return Err(format!("branch {k} has non-positive tap"));
            }
        }
        if !self.is_connected() {
            return Err("bus graph is not connected".into());
        }
        Ok(())
    }

    /// Whether the bus graph is connected (ignoring areas).
    pub fn is_connected(&self) -> bool {
        let n = self.n_buses();
        if n == 0 {
            return true;
        }
        let mut adj = vec![Vec::new(); n];
        for br in &self.branches {
            adj[br.from].push(br.to);
            adj[br.to].push(br.from);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Extracts `area` as a standalone network (internal branches only;
    /// tie lines drop out). Returns the sub-network together with the map
    /// from local bus index to the original dense index.
    ///
    /// If the area contains no slack bus, its first bus is promoted to
    /// slack so the sub-network remains structurally valid; this does not
    /// change any electrical quantity.
    pub fn extract_area(&self, area: usize) -> (Network, Vec<usize>) {
        let globals = self.area_buses(area);
        let mut local_of = vec![usize::MAX; self.n_buses()];
        for (l, &g) in globals.iter().enumerate() {
            local_of[g] = l;
        }
        let mut buses: Vec<Bus> = globals.iter().map(|&g| self.buses[g].clone()).collect();
        for (l, b) in buses.iter_mut().enumerate() {
            b.area = 0;
            b.id = self.buses[globals[l]].id;
        }
        if !buses.iter().any(|b| b.kind == BusKind::Slack) {
            if let Some(first) = buses.first_mut() {
                first.kind = BusKind::Slack;
            }
        }
        let branches = self
            .branches
            .iter()
            .filter(|br| {
                self.buses[br.from].area == area && self.buses[br.to].area == area
            })
            .map(|br| Branch {
                from: local_of[br.from],
                to: local_of[br.to],
                ..br.clone()
            })
            .collect();
        (
            Network {
                name: format!("{}-area{}", self.name, area),
                base_mva: self.base_mva,
                buses,
                branches,
            },
            globals,
        )
    }

    /// Serializes the case to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("network serializes")
    }

    /// Parses a case from JSON.
    pub fn from_json(s: &str) -> Result<Network, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_area_net() -> Network {
        let mut buses = vec![
            Bus::load(1, 0, 0.0, 0.0),
            Bus::load(2, 0, 0.5, 0.1),
            Bus::load(3, 1, 0.4, 0.1),
            Bus::load(4, 1, 0.3, 0.05),
        ];
        buses[0].kind = BusKind::Slack;
        buses[0].vm_setpoint = 1.02;
        Network {
            name: "two-area".into(),
            base_mva: 100.0,
            buses,
            branches: vec![
                Branch::line(0, 1, 0.01, 0.05, 0.0),
                Branch::line(2, 3, 0.01, 0.05, 0.0),
                Branch::line(1, 2, 0.02, 0.08, 0.0), // tie line
            ],
        }
    }

    #[test]
    fn tie_lines_cross_areas() {
        let net = two_area_net();
        assert_eq!(net.tie_lines(), vec![2]);
        assert_eq!(net.internal_branches(0), vec![0]);
        assert_eq!(net.internal_branches(1), vec![1]);
    }

    #[test]
    fn boundary_buses_are_tie_endpoints() {
        let net = two_area_net();
        assert_eq!(net.boundary_buses(0), vec![1]);
        assert_eq!(net.boundary_buses(1), vec![2]);
    }

    #[test]
    fn area_adjacency_lists_each_pair_once() {
        let net = two_area_net();
        assert_eq!(net.area_adjacency(), vec![(0, 1)]);
        assert_eq!(net.n_areas(), 2);
    }

    #[test]
    fn validation_accepts_good_network() {
        assert!(two_area_net().validate().is_ok());
    }

    #[test]
    fn validation_rejects_missing_slack() {
        let mut net = two_area_net();
        net.buses[0].kind = BusKind::Pq;
        assert!(net.validate().unwrap_err().contains("slack"));
    }

    #[test]
    fn validation_rejects_disconnection() {
        let mut net = two_area_net();
        net.branches.remove(2);
        assert!(net.validate().unwrap_err().contains("connected"));
    }

    #[test]
    fn validation_rejects_bad_reactance() {
        let mut net = two_area_net();
        net.branches[0].x = 0.0;
        assert!(net.validate().unwrap_err().contains("reactance"));
    }

    #[test]
    fn json_roundtrip_preserves_case() {
        let net = two_area_net();
        let back = Network::from_json(&net.to_json()).unwrap();
        assert_eq!(back.n_buses(), net.n_buses());
        assert_eq!(back.n_branches(), net.n_branches());
        assert_eq!(back.buses[1].pd, net.buses[1].pd);
        assert_eq!(back.name, net.name);
    }

    #[test]
    fn extract_area_relabels_buses_and_branches() {
        let net = two_area_net();
        let (sub, map) = net.extract_area(1);
        assert_eq!(sub.n_buses(), 2);
        assert_eq!(map, vec![2, 3]);
        assert_eq!(sub.n_branches(), 1);
        assert_eq!((sub.branches[0].from, sub.branches[0].to), (0, 1));
        // The tie line (1,2) must not appear in the sub-network.
        assert_eq!(sub.branches.len(), 1);
        // A slack is promoted since area 1 had none.
        assert_eq!(sub.slack(), 0);
        assert_eq!(sub.buses[0].id, 3);
    }

    #[test]
    fn extract_area_preserves_slack_when_present() {
        let net = two_area_net();
        let (sub, _) = net.extract_area(0);
        assert_eq!(sub.slack(), 0);
        assert_eq!(sub.buses[1].pd, 0.5);
    }

    #[test]
    fn injections_subtract_demand() {
        let mut b = Bus::load(1, 0, 0.7, 0.2);
        b.pg = 1.0;
        b.qg = 0.5;
        assert!((b.p_injection() - 0.3).abs() < 1e-15);
        assert!((b.q_injection() - 0.3).abs() < 1e-15);
    }
}
