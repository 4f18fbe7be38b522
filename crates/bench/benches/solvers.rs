//! Gain-matrix solver ablation: the paper's PCG (with each preconditioner)
//! against the direct sparse Cholesky, on the real IEEE-118 WLS gain
//! matrix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pgse_estimation::jacobian::{assemble_jacobian, StateSpace};
use pgse_estimation::synthetic::TelemetryPlan;
use pgse_grid::cases::ieee118_like;
use pgse_grid::Ybus;
use pgse_powerflow::{solve, PfOptions};
use pgse_sparsela::pcg::{pcg, CgOptions, Preconditioner};
use pgse_sparsela::{Csr, SparseCholesky};

fn gain_system() -> (Csr, Vec<f64>) {
    let net = ieee118_like();
    let pf = solve(&net, &PfOptions::default()).unwrap();
    let plan = TelemetryPlan::full(&net, vec![net.slack()]);
    let set = plan.generate(&net, &pf, 1.0, 1);
    let space = StateSpace::with_reference(net.n_buses(), net.slack());
    let ybus = Ybus::new(&net);
    let vm = vec![1.0; net.n_buses()];
    let va = vec![0.0; net.n_buses()];
    let h = assemble_jacobian(&net, &ybus, &set, &space, &vm, &va);
    let gain = h.ata_weighted(&set.weights());
    let mut rhs = vec![0.0; space.dim()];
    let wr: Vec<f64> = set.values().iter().zip(set.weights()).map(|(z, w)| z * w * 0.01).collect();
    h.spmv_transpose(&wr, &mut rhs);
    (gain, rhs)
}

fn bench_gain_solvers(c: &mut Criterion) {
    let (gain, rhs) = gain_system();
    let opts = CgOptions { rel_tol: 1e-10, max_iter: 10_000, parallel: false };
    let mut group = c.benchmark_group("gain_solve_ieee118");
    group.sample_size(20);

    for (name, precond) in [
        ("cg_identity", Preconditioner::Identity),
        ("pcg_jacobi", Preconditioner::jacobi(&gain).unwrap()),
        ("pcg_ic0", Preconditioner::ic0(&gain).unwrap()),
    ] {
        group.bench_function(BenchmarkId::new("pcg", name), |b| {
            b.iter(|| pcg(&gain, &rhs, &precond, &opts).unwrap())
        });
    }
    group.bench_function("cholesky_sparse", |b| {
        b.iter(|| SparseCholesky::factor(&gain).unwrap().solve(&rhs))
    });
    group.finish();
}

fn bench_spmv(c: &mut Criterion) {
    let (gain, rhs) = gain_system();
    let mut y = vec![0.0; gain.nrows()];
    let mut group = c.benchmark_group("spmv_ieee118_gain");
    group.sample_size(50);
    group.bench_function("serial", |b| b.iter(|| gain.spmv(&rhs, &mut y)));
    group.bench_function("parallel", |b| b.iter(|| gain.par_spmv(&rhs, &mut y)));
    group.finish();
}

criterion_group!(benches, bench_gain_solvers, bench_spmv);
criterion_main!(benches);
