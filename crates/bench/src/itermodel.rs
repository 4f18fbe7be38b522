//! The paper's iteration-count model `Ni = g1·x + g2`.
//!
//! §IV-B.2 models the Gauss–Newton iteration count of a subsystem as an
//! affine function of the measurement noise level `x` (for their 14-bus
//! subsystem the empirical fit was `g1 = 3.7579`, `g2 = 5.2464`). The
//! mapping method evaluates this model each time frame to set the vertex
//! weights of the decomposition graph. We re-fit the constants on our own
//! telemetry by ordinary least squares.

/// The fitted affine iteration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationModel {
    /// Slope `g1`.
    pub g1: f64,
    /// Intercept `g2`.
    pub g2: f64,
}

impl IterationModel {
    /// The paper's empirical constants for a 14-bus subsystem.
    pub const PAPER_14BUS: IterationModel = IterationModel { g1: 3.7579, g2: 5.2464 };
}

/// Ordinary least-squares fit of `y ≈ g1·x + g2`.
///
/// Returns the model together with the coefficient of determination `R²`.
///
/// # Panics
/// Panics when fewer than two samples are supplied or all `x` are equal.
pub fn fit_affine(samples: &[(f64, f64)]) -> (IterationModel, f64) {
    assert!(samples.len() >= 2, "need at least two samples");
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|s| s.0).sum();
    let sy: f64 = samples.iter().map(|s| s.1).sum();
    let sxx: f64 = samples.iter().map(|s| s.0 * s.0).sum();
    let sxy: f64 = samples.iter().map(|s| s.0 * s.1).sum();
    let denom = n * sxx - sx * sx;
    assert!(denom.abs() > 1e-12, "degenerate fit: all x equal");
    let g1 = (n * sxy - sx * sy) / denom;
    let g2 = (sy - g1 * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = samples.iter().map(|s| (s.1 - mean_y) * (s.1 - mean_y)).sum();
    let ss_res: f64 = samples
        .iter()
        .map(|s| {
            let e = s.1 - (g1 * s.0 + g2);
            e * e
        })
        .sum();
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    (IterationModel { g1, g2 }, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let samples: Vec<(f64, f64)> =
            (0..10).map(|i| (i as f64, 3.7579 * i as f64 + 5.2464)).collect();
        let (m, r2) = fit_affine(&samples);
        assert!((m.g1 - 3.7579).abs() < 1e-9);
        assert!((m.g2 - 5.2464).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_fits_approximately() {
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64 * 0.1;
                (x, 2.0 * x + 4.0 + 0.05 * ((i * 31 % 17) as f64 - 8.0))
            })
            .collect();
        let (m, r2) = fit_affine(&samples);
        assert!((m.g1 - 2.0).abs() < 0.1);
        assert!((m.g2 - 4.0).abs() < 0.3);
        assert!(r2 > 0.95);
    }

    #[test]
    fn paper_constants_available() {
        let m = IterationModel::PAPER_14BUS;
        // The paper's example: a 14-bus subsystem at nominal noise.
        assert!((m.g1 * 1.0 + m.g2 - 9.0043).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn one_sample_panics() {
        fit_affine(&[(1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn constant_x_panics() {
        fit_affine(&[(1.0, 2.0), (1.0, 3.0)]);
    }
}
