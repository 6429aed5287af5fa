//! The host-side [`BoundStage`] adapter for the PIM-aware bounds.
//!
//! Section V-D notes that although a PIM-aware bound executes on PIM
//! online, "it is practical to conduct on traditional architectures at
//! offline stage for purpose of measuring the pruning ratio".
//! [`PimStage`] evaluates `LB_PIM-ED` / `LB_PIM-FNN` / `LB_PIM-SM` on the
//! host through the very [`PreparedFunction`] row the executor runs — the
//! same `quantise`, the same `G`, an integer dot on the same kernel — so
//! it is bit-identical to the executor's batch path, and the planner can
//! measure ratios and compose plans mixing classic and PIM-aware bounds.
//!
//! Its `transfer_bytes_per_object` reports the **online** PIM cost — the
//! Φ scalar plus the dot results the host reads to evaluate `G` — because
//! that is the cost Eq. 13 must charge the bound with.

use crate::error::CoreError;
use crate::executor::{PreparedFunction, Quantised};
use crate::pim_bounds::host_floor_dot;
use simpim_bounds::{BoundDirection, BoundStage, EvalCost, PreparedBound};
use simpim_reram::array::RegionId;
use simpim_similarity::{NormalizedDataset, Quantizer};

/// A PIM-aware ED lower bound evaluated on the host: the row of Table 4
/// plus the floor matrices its crossbar regions would hold.
#[derive(Debug, Clone)]
pub struct PimStage {
    /// The row; its region ids index `floors`.
    row: PreparedFunction,
    /// Row-major `N × s` floors per region.
    floors: Vec<Vec<u32>>,
    /// Operands per object and region.
    s: usize,
    quantizer: Quantizer,
}

impl PimStage {
    /// Host-side `LB_PIM-ED` (Theorem 1) over full-dimensional floors.
    pub fn ed(data: &NormalizedDataset, alpha: f64) -> Result<Self, CoreError> {
        let row = PreparedFunction::Ed {
            region: RegionId(0),
            phis: Vec::new(),
            d: data.dataset().dim(),
        };
        Self::build(row, data, alpha)
    }

    /// Host-side `LB_PIM-FNN^s` (Theorem 2) over the quantized segment
    /// statistics at `d_prime` segments.
    pub fn fnn(data: &NormalizedDataset, d_prime: usize, alpha: f64) -> Result<Self, CoreError> {
        let row = PreparedFunction::Fnn {
            mu_region: RegionId(0),
            sigma_region: RegionId(1),
            phis: Vec::new(),
            d_prime,
            segment_len: segment_len(data, d_prime),
        };
        Self::build(row, data, alpha)
    }

    /// Host-side `LB_PIM-SM^s`, the mean-only sibling of
    /// [`PimStage::fnn`] (one region online).
    pub fn sm(data: &NormalizedDataset, d_prime: usize, alpha: f64) -> Result<Self, CoreError> {
        let row = PreparedFunction::Sm {
            mu_region: RegionId(0),
            phis: Vec::new(),
            d_prime,
            segment_len: segment_len(data, d_prime),
        };
        Self::build(row, data, alpha)
    }

    /// Quantises every vector of `data` in `row`'s terms.
    fn build(
        mut row: PreparedFunction,
        data: &NormalizedDataset,
        alpha: f64,
    ) -> Result<Self, CoreError> {
        let ds = data.dataset();
        let quantizer = Quantizer::identity(alpha)?;
        let mut floors = vec![Vec::new(); row.regions().len()];
        let mut phis = Vec::with_capacity(ds.len());
        for vector in ds.rows() {
            let q = row.quantise(&quantizer, vector)?;
            for (region, operands) in floors.iter_mut().zip(&q.floors) {
                region.extend_from_slice(operands);
            }
            phis.push(q.phi);
        }
        let s = floors[0].len().checked_div(ds.len()).unwrap_or(0);
        *row.phi_table("host stages cover the ED lower bounds")? = phis;
        Ok(Self {
            row,
            floors,
            s,
            quantizer,
        })
    }
}

/// `d / d_prime`. A `d_prime` that does not divide `d` is rejected by the
/// first `quantise`, whatever is returned here.
fn segment_len(data: &NormalizedDataset, d_prime: usize) -> usize {
    data.dataset().dim().checked_div(d_prime).unwrap_or(0)
}

impl BoundStage for PimStage {
    fn name(&self) -> String {
        self.row.name()
    }

    fn direction(&self) -> BoundDirection {
        BoundDirection::LowerBoundsDistance
    }

    fn d_prime(&self) -> usize {
        self.s
    }

    fn transfer_bytes_per_object(&self) -> u64 {
        self.row.host_bytes_per_object() // Φ + one PIM dot result per region
    }

    fn eval_cost(&self) -> EvalCost {
        // G is O(1): per dot result two adds and a multiply, plus the Φ
        // sum and the final scale, once the dots arrive.
        let regions = self.floors.len() as u64;
        EvalCost {
            arith: 2 + 2 * regions,
            mul: 1 + regions,
            div: 0,
            sqrt: 0,
            bytes: self.row.host_bytes_per_object(),
        }
    }

    fn prepare(&self, query: &[f64]) -> Box<dyn PreparedBound + '_> {
        assert_eq!(query.len(), self.row.dim(), "query dimensionality mismatch");
        let q = self
            .row
            .quantise(&self.quantizer, query)
            .expect("normalized query");
        Box::new(PimPrepared { stage: self, q })
    }
}

struct PimPrepared<'a> {
    stage: &'a PimStage,
    q: Quantised,
}

impl PreparedBound for PimPrepared<'_> {
    fn bound(&self, i: usize) -> f64 {
        let PimStage { row, floors, s, .. } = self.stage;
        let mut dots = [0u64; 2];
        for (dot, (region, query)) in dots.iter_mut().zip(floors.iter().zip(&self.q.floors)) {
            *dot = host_floor_dot(&region[i * s..(i + 1) * s], query);
        }
        let mut value = 0.0;
        // The host reads its own exact floors: no slack for `qmax` to scale.
        row.combine(
            &self.q,
            [0; 2],
            self.stage.quantizer.alpha(),
            i..i + 1,
            std::slice::from_mut(&mut value),
            |_| (dots, [0; 2]),
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simpim_similarity::measures::euclidean_sq;
    use simpim_similarity::Dataset;

    fn data() -> NormalizedDataset {
        NormalizedDataset::assert_normalized(
            Dataset::from_rows(&[
                vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.4, 0.6],
                vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
                vec![0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn host_ed_stage_lower_bounds() {
        let d = data();
        let stage = PimStage::ed(&d, 1e4).unwrap();
        assert_eq!(stage.name(), "LB_PIM-ED");
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let prep = stage.prepare(&q);
        for i in 0..3 {
            let lb = prep.bound(i);
            let ed = euclidean_sq(d.dataset().row(i), &q);
            assert!(lb <= ed + 1e-9);
            assert!(ed - lb < 0.01, "tight at alpha 1e4");
        }
    }

    #[test]
    fn host_fnn_stage_lower_bounds_and_matches_executor_semantics() {
        let d = data();
        let stage = PimStage::fnn(&d, 4, 1e4).unwrap();
        assert_eq!(stage.name(), "LB_PIM-FNN^4");
        assert_eq!(stage.transfer_bytes_per_object(), 24);
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let prep = stage.prepare(&q);
        for i in 0..3 {
            assert!(prep.bound(i) <= euclidean_sq(d.dataset().row(i), &q) + 1e-9);
        }
    }

    #[test]
    fn host_sm_stage_lower_bounds_and_matches_executor() {
        use crate::executor::{ExecutorConfig, PimExecutor};
        use simpim_reram::{CrossbarConfig, PimConfig};
        let d = data();
        let alpha = 1000.0;
        let stage = PimStage::sm(&d, 4, alpha).unwrap();
        assert_eq!(stage.name(), "LB_PIM-SM^4");
        assert_eq!(stage.transfer_bytes_per_object(), 16);
        let cfg = ExecutorConfig {
            pim: PimConfig {
                crossbar: CrossbarConfig {
                    size: 16,
                    adc_bits: 10,
                    ..Default::default()
                },
                num_crossbars: 4096,
                ..Default::default()
            },
            alpha,
            operand_bits: 16,
            double_buffer: false,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        };
        let mut exec = PimExecutor::prepare_sm(cfg, &d, 4).unwrap();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        let prep = stage.prepare(&q);
        for i in 0..3 {
            assert!(prep.bound(i) <= euclidean_sq(d.dataset().row(i), &q) + 1e-9);
            assert_eq!(batch.values[i].to_bits(), prep.bound(i).to_bits());
        }
    }

    #[test]
    fn host_stage_agrees_with_executor_batch() {
        use crate::executor::{ExecutorConfig, PimExecutor};
        use simpim_reram::{CrossbarConfig, PimConfig};
        let d = data();
        let alpha = 1000.0;
        let stage = PimStage::fnn(&d, 4, alpha).unwrap();
        let cfg = ExecutorConfig {
            pim: PimConfig {
                crossbar: CrossbarConfig {
                    size: 16,
                    adc_bits: 10,
                    ..Default::default()
                },
                num_crossbars: 4096,
                ..Default::default()
            },
            alpha,
            operand_bits: 16,
            double_buffer: false,
            parallel_regions: true,
            faults: None,
            scrub_interval: 0,
        };
        let mut exec = PimExecutor::prepare_fnn(cfg, &d, 4).unwrap();
        let q = [0.4, 0.3, 0.9, 0.1, 0.6, 0.2, 0.55, 0.45];
        let batch = exec.lb_ed_batch(&q).unwrap();
        let prep = stage.prepare(&q);
        for i in 0..3 {
            assert_eq!(
                batch.values[i].to_bits(),
                prep.bound(i).to_bits(),
                "host-side stage and PIM batch must agree bit-for-bit"
            );
        }
    }
}
