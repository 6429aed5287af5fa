//! Per-evaluation operation costs of a bound, used to charge the host cost
//! model and to rank execution plans (Eq. 13).

/// Operation counts incurred by evaluating one bound on one object.
/// Converted into `simpim-simkit` counters by the instrumented mining
/// algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCost {
    /// Simple arithmetic ops (add/sub).
    pub arith: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Square roots.
    pub sqrt: u64,
    /// Bytes streamed from memory per object.
    pub bytes: u64,
}

impl EvalCost {
    /// Scales every component (e.g. per-object → per-batch).
    pub fn scaled(&self, n: u64) -> EvalCost {
        EvalCost {
            arith: self.arith * n,
            mul: self.mul * n,
            div: self.div * n,
            sqrt: self.sqrt * n,
            bytes: self.bytes * n,
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &EvalCost) -> EvalCost {
        EvalCost {
            arith: self.arith + other.arith,
            mul: self.mul + other.mul,
            div: self.div + other.div,
            sqrt: self.sqrt + other.sqrt,
            bytes: self.bytes + other.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_and_addition() {
        let a = EvalCost {
            arith: 1,
            mul: 2,
            div: 3,
            sqrt: 4,
            bytes: 5,
        };
        let b = a.scaled(10);
        assert_eq!(b.mul, 20);
        assert_eq!(b.bytes, 50);
        let c = a.plus(&b);
        assert_eq!(c.arith, 11);
        assert_eq!(c.sqrt, 44);
    }
}
