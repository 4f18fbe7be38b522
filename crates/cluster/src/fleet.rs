//! Clusters, the testbed fleet, and fleet liveness.
//!
//! [`FleetLiveness`] is the supervisor's view of which clusters are still
//! reachable: the streaming failover layer marks a cluster dead when every
//! worker it hosts has stopped heartbeating, and from then on no subsystem
//! may be (re)hosted there until an operator revives it. The type is a
//! plain bookkeeping structure — deliberately free of clocks and channels —
//! so that failover decisions driven by it stay deterministic.

use std::sync::Arc;

/// One HPC cluster: a named compute resource with its own thread pool
/// standing in for the cluster's nodes.
#[derive(Clone)]
pub struct HpcCluster {
    name: String,
    cores: usize,
    pool: Arc<rayon::ThreadPool>,
}

impl std::fmt::Debug for HpcCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HpcCluster")
            .field("name", &self.name)
            .field("cores", &self.cores)
            .finish()
    }
}

impl HpcCluster {
    /// A cluster with `cores` worker threads.
    ///
    /// # Panics
    /// Panics if `cores == 0` or the pool cannot be built.
    pub fn new(name: impl Into<String>, cores: usize) -> Self {
        assert!(cores > 0, "cluster needs at least one core");
        let name = name.into();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cores)
            .thread_name({
                let name = name.clone();
                move |i| format!("{name}-worker-{i}")
            })
            .build()
            .expect("cluster thread pool");
        HpcCluster { name, cores, pool: Arc::new(pool) }
    }

    /// Cluster name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs `job` on this cluster's pool (rayon parallelism inside `job`
    /// uses the cluster's threads, not the global pool).
    pub fn run<T: Send>(&self, job: impl FnOnce() -> T + Send) -> T {
        self.pool.install(job)
    }
}

/// The deployed set of clusters.
#[derive(Debug, Clone)]
pub struct ClusterFleet {
    clusters: Vec<HpcCluster>,
}

impl ClusterFleet {
    /// A fleet from explicit clusters.
    pub fn new(clusters: Vec<HpcCluster>) -> Self {
        assert!(!clusters.is_empty(), "fleet needs at least one cluster");
        ClusterFleet { clusters }
    }

    /// The paper's three-cluster laboratory testbed.
    pub fn paper_testbed() -> Self {
        ClusterFleet::new(vec![
            HpcCluster::new("Nwiceb", 2),
            HpcCluster::new("Catamount", 2),
            HpcCluster::new("Chinook", 2),
        ])
    }

    /// Number of clusters (`p`, the partition count).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when the fleet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The clusters.
    pub fn clusters(&self) -> &[HpcCluster] {
        &self.clusters
    }

    /// Cluster by index.
    pub fn cluster(&self, i: usize) -> &HpcCluster {
        &self.clusters[i]
    }

    /// Runs one job per cluster concurrently, each on its own pool, and
    /// returns the results in cluster order. This is the fleet-level
    /// "every cluster computes its assigned subsystems at once".
    pub fn run_all<T: Send>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + '_>>,
    ) -> Vec<T> {
        assert_eq!(jobs.len(), self.len(), "one job per cluster");
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clusters
                .iter()
                .zip(jobs)
                .map(|(cluster, job)| scope.spawn(move || cluster.run(job)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("cluster job panicked")).collect()
        })
    }
}

/// Which clusters of a fleet are currently alive, as believed by the
/// supervisor (declared from missed heartbeats, not measured directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetLiveness {
    alive: Vec<bool>,
}

impl FleetLiveness {
    /// A liveness view over `n` clusters, all initially alive.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "fleet needs at least one cluster");
        FleetLiveness { alive: vec![true; n] }
    }

    /// Number of clusters tracked (alive or dead).
    pub fn n_clusters(&self) -> usize {
        self.alive.len()
    }

    /// Declares cluster `c` dead; returns whether it was alive before
    /// (i.e. whether this call changed anything).
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn kill(&mut self, c: usize) -> bool {
        let was = self.alive[c];
        self.alive[c] = false;
        was
    }

    /// Declares cluster `c` alive again (operator-driven recovery);
    /// returns whether it was dead before.
    ///
    /// # Panics
    /// Panics when `c` is out of range.
    pub fn revive(&mut self, c: usize) -> bool {
        let was = self.alive[c];
        self.alive[c] = true;
        !was
    }

    /// Count of alive clusters.
    pub fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Indices of alive clusters, ascending.
    pub fn alive_clusters(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&c| self.alive[c]).collect()
    }

    /// Indices of dead clusters, ascending.
    pub fn dead_clusters(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&c| !self.alive[c]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn liveness_tracks_kills_and_revivals() {
        let mut l = FleetLiveness::new(3);
        assert_eq!(l.n_alive(), 3);
        assert!(l.kill(1), "first kill reports a state change");
        assert!(!l.kill(1), "second kill of the same cluster is a no-op");
        assert!(!l.alive[1]);
        assert_eq!(l.alive_clusters(), vec![0, 2]);
        assert_eq!(l.dead_clusters(), vec![1]);
        assert!(l.n_alive() != 0);
        assert!(l.revive(1));
        assert!(!l.revive(1), "reviving an alive cluster is a no-op");
        assert_eq!(l.n_alive(), 3);
    }

    #[test]
    fn liveness_reports_total_fleet_loss() {
        let mut l = FleetLiveness::new(2);
        l.kill(0);
        l.kill(1);
        assert_eq!(l.n_alive(), 0);
        assert_eq!(l.alive_clusters(), Vec::<usize>::new());
    }

    #[test]
    fn paper_testbed_has_three_named_clusters() {
        let fleet = ClusterFleet::paper_testbed();
        assert_eq!(fleet.len(), 3);
        let names: Vec<&str> = fleet.clusters().iter().map(HpcCluster::name).collect();
        assert_eq!(names, vec!["Nwiceb", "Catamount", "Chinook"]);
    }

    #[test]
    fn cluster_pool_runs_jobs() {
        let c = HpcCluster::new("test", 2);
        let out = c.run(|| (0..100).sum::<i32>());
        assert_eq!(out, 4950);
        assert_eq!(c.cores, 2);
    }

    #[test]
    fn cluster_pool_hosts_rayon_parallelism() {
        use rayon::prelude::*;
        let c = HpcCluster::new("par", 2);
        let out = c.run(|| (0..1000i64).into_par_iter().map(|i| i * 2).sum::<i64>());
        assert_eq!(out, 999_000);
    }

    #[test]
    fn run_all_executes_one_job_per_cluster() {
        let fleet = ClusterFleet::paper_testbed();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..3usize)
            .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        assert_eq!(fleet.run_all(jobs), vec![0, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_cluster_rejected() {
        HpcCluster::new("broken", 0);
    }
}
