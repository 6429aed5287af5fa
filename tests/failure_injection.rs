//! Failure-injection tests: every layer must reject bad inputs and
//! resource exhaustion with a diagnosable error instead of silently
//! producing wrong results.

use simpim::core::executor::{ExecutorConfig, PimExecutor, SimTarget};
use simpim::core::CoreError;
use simpim::reram::{AccWidth, CrossbarConfig, PimArray, PimConfig, ReRamError};
use simpim::similarity::{Dataset, NormalizedDataset, Quantizer, SimilarityError};

fn tiny_data(n: usize, d: usize) -> NormalizedDataset {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| ((i * 13 + j * 7) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    NormalizedDataset::assert_normalized(Dataset::from_rows(&rows).unwrap())
}

#[test]
fn undersized_adc_clips_loudly_not_silently() {
    // An 8-wide crossbar with a 5-bit ADC: a full column of maxed cells
    // driven at max DAC (8 · 3 · 3 = 72 ≥ 2^5) would clip. The array
    // computes exact dot products, so it would answer such a read exactly
    // instead of clipping; the simulator must refuse the config up front.
    let cfg = CrossbarConfig {
        size: 8,
        cell_bits: 2,
        dac_bits: 2,
        adc_bits: 5,
        ..Default::default()
    };
    assert!(!cfg.adc_covers_worst_case());
    let out = PimArray::new(PimConfig {
        crossbar: cfg,
        ..Default::default()
    });
    assert!(
        matches!(out, Err(ReRamError::InvalidConfig { .. })),
        "{:?}",
        out.err()
    );
}

#[test]
fn crossbar_budget_exhaustion_reports_requirements() {
    let cfg = PimConfig {
        num_crossbars: 2,
        ..Default::default()
    };
    let mut pim = PimArray::new(cfg).unwrap();
    let big = vec![1u32; 100_000 * 8];
    let err = pim.program_region(&big, 100_000, 8, 32).unwrap_err();
    match err {
        ReRamError::InsufficientCapacity {
            required,
            available,
        } => {
            assert!(required > available);
            assert_eq!(available, 2);
        }
        other => panic!("expected capacity error, got {other:?}"),
    }
}

#[test]
fn executor_rejects_unpreparable_datasets() {
    let data = tiny_data(5_000, 64);
    let cfg = ExecutorConfig {
        pim: PimConfig {
            num_crossbars: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let err = PimExecutor::prepare_euclidean(cfg, &data).unwrap_err();
    assert!(matches!(err, CoreError::CannotFit { .. }), "{err:?}");
}

#[test]
fn similarity_executor_refuses_compression() {
    // CS/PCC semantics change under segment compression, so the executor
    // must refuse rather than silently compress.
    let data = tiny_data(5_000, 64);
    let cfg = ExecutorConfig {
        pim: PimConfig {
            num_crossbars: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let err = PimExecutor::prepare_similarity(cfg, &data, SimTarget::Cosine).unwrap_err();
    assert!(matches!(err, CoreError::CannotFit { .. }), "{err:?}");
}

#[test]
fn quantizer_rejects_nan_queries_end_to_end() {
    let data = tiny_data(16, 8);
    let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &data).unwrap();
    let bad = vec![f64::NAN; 8];
    let err = exec.lb_ed_batch(&bad).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Similarity(SimilarityError::InvalidValue { .. })
        ),
        "{err:?}"
    );
}

#[test]
fn stale_region_ids_do_not_resolve_after_clear() {
    let mut pim = PimArray::new(PimConfig::default()).unwrap();
    let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 8).unwrap();
    pim.clear();
    let err = pim
        .dot_batch(rep.region, &[1, 1, 1, 1], AccWidth::U64)
        .unwrap_err();
    assert!(matches!(err, ReRamError::NotProgrammed));
}

#[test]
fn reprogramming_after_clear_accumulates_wear() {
    let mut pim = PimArray::new(PimConfig::default()).unwrap();
    let mut total = 0;
    for _ in 0..3 {
        let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 8).unwrap();
        total += rep.cell_writes;
        pim.clear();
    }
    assert_eq!(
        pim.total_cell_writes(),
        total,
        "wear must persist across re-programming"
    );
}

#[test]
fn memory_array_overflow_is_checked() {
    use simpim::reram::MemoryArray;
    let mut mem = MemoryArray::new(100);
    mem.store(100).unwrap();
    assert!(mem.store(1).is_err());
}

#[test]
fn quantizer_alpha_domain_is_validated() {
    assert!(Quantizer::identity(0.0).is_err());
    assert!(Quantizer::identity(-5.0).is_err());
    assert!(Quantizer::identity(f64::INFINITY).is_err());
    assert!(Quantizer::identity(1.0).is_ok());
}

#[test]
fn mismatched_shapes_fail_before_any_compute() {
    let data = tiny_data(16, 8);
    let mut exec = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &data).unwrap();
    assert!(matches!(
        exec.lb_ed_batch(&[0.5; 9]),
        Err(CoreError::Mismatch { .. })
    ));
    assert!(matches!(
        exec.ub_sim_batch(&[0.5; 8]),
        Err(CoreError::Mismatch { .. })
    ));
}

// ---------------------------------------------------------------------------
// Fault injection and recovery (see `simpim::reram::faults` and the
// executor's scrub → classify → remap → quarantine pipeline).
// ---------------------------------------------------------------------------

use simpim::reram::FaultConfig;
use simpim::similarity::measures::euclidean_sq;

#[test]
fn invalid_fault_configs_are_rejected() {
    for bad in [
        FaultConfig {
            stuck_low_rate: -0.1,
            ..Default::default()
        },
        FaultConfig {
            adc_glitch_rate: f64::NAN,
            ..Default::default()
        },
        FaultConfig {
            stuck_low_rate: 0.7,
            stuck_high_rate: 0.7,
            ..Default::default()
        },
        FaultConfig {
            adc_retry_limit: 0,
            ..Default::default()
        },
    ] {
        assert!(
            matches!(bad.validate(), Err(ReRamError::InvalidConfig { .. })),
            "{bad:?} must be rejected"
        );
        // The same rejection must surface through the executor before any
        // crossbar is programmed.
        let data = tiny_data(16, 8);
        let cfg = ExecutorConfig {
            faults: Some(bad),
            ..Default::default()
        };
        let err = PimExecutor::prepare_euclidean(cfg, &data).unwrap_err();
        assert!(
            matches!(err, CoreError::ReRam(ReRamError::InvalidConfig { .. })),
            "{err:?}"
        );
    }
}

#[test]
fn health_queries_require_enabled_faults_and_a_scrub() {
    let mut pim = PimArray::new(PimConfig::default()).unwrap();
    let rep = pim.program_region(&[1, 2, 3, 4], 1, 4, 8).unwrap();

    // No fault model attached: the health API must refuse loudly.
    assert_eq!(
        pim.scrub_region(rep.region),
        Err(ReRamError::FaultsNotEnabled)
    );
    assert!(matches!(
        pim.remap_dead(rep.region),
        Err(ReRamError::FaultsNotEnabled)
    ));
    assert_eq!(
        pim.object_health(rep.region, 0),
        Err(ReRamError::FaultsNotEnabled)
    );

    // Fault model attached but the region was never scrubbed: recovery and
    // health queries have no survey to work from.
    pim.enable_faults(FaultConfig {
        stuck_low_rate: 0.01,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    assert!(matches!(
        pim.remap_dead(rep.region),
        Err(ReRamError::NotScrubbed)
    ));
    assert_eq!(
        pim.object_health(rep.region, 0),
        Err(ReRamError::NotScrubbed)
    );

    // After a scrub everything is answerable.
    pim.scrub_region(rep.region).unwrap();
    pim.object_health(rep.region, 0).unwrap();
    pim.remap_dead(rep.region).unwrap();
}

#[test]
fn permanently_glitching_adc_exhausts_retries_loudly() {
    let data = tiny_data(16, 8);
    let cfg = ExecutorConfig {
        faults: Some(FaultConfig {
            adc_glitch_rate: 1.0,
            adc_retry_limit: 3,
            seed: 11,
            ..Default::default()
        }),
        ..Default::default()
    };
    // The constructor's initial scrub reads every crossbar; a permanently
    // glitching ADC must surface as a typed error, not a hang or a bogus
    // result.
    let err = PimExecutor::prepare_euclidean(cfg, &data).unwrap_err();
    match err {
        CoreError::ReRam(ReRamError::AdcRetryExhausted { attempts, .. }) => {
            assert_eq!(attempts, 3);
        }
        other => panic!("expected AdcRetryExhausted, got {other:?}"),
    }
}

#[test]
fn quarantine_without_spares_still_answers_with_valid_bounds() {
    let data = tiny_data(64, 16);

    // Size the array to the exact footprint of the clean preparation so
    // there is zero spare capacity for remapping.
    let clean = PimExecutor::prepare_euclidean(ExecutorConfig::default(), &data).unwrap();
    let budget = clean.report().crossbars_used;

    let mut cfg = ExecutorConfig {
        faults: Some(FaultConfig {
            dead_wordline_rate: 0.3,
            seed: 13,
            ..Default::default()
        }),
        ..Default::default()
    };
    cfg.pim.num_crossbars = budget;
    let mut exec = PimExecutor::prepare_euclidean(cfg, &data).unwrap();
    let fc = *exec.fault_counters();
    assert!(fc.scrubs > 0 && fc.faults_detected > 0, "{fc:?}");
    assert!(
        fc.quarantined_rows > 0,
        "at 30% dead wordlines and zero spares some objects must be quarantined: {fc:?}"
    );

    // Quarantined objects are recovered host-side: every reported value
    // must still be a valid ED lower bound.
    let q: Vec<f64> = data.dataset().row(3).to_vec();
    let batch = exec.lb_ed_batch(&q).unwrap();
    assert!(batch.fault_counters.fallback_refinements > 0);
    for (i, &lb) in batch.values.iter().enumerate() {
        let true_ed = euclidean_sq(data.dataset().row(i), &q);
        assert!(
            lb <= true_ed + 1e-9,
            "object {i}: bound {lb} exceeds true ED {true_ed}"
        );
    }
}
