//! One module per reproduced table/figure; see DESIGN.md's experiment
//! index.

pub mod e2e;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig3;
pub mod fig4;
pub mod fig9;
pub mod goodput;
pub mod hardware;
pub mod multimodal;
pub mod numerics_exp;
pub mod ordering;
pub mod slowrank;
pub mod table2;

/// A runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI identifier.
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Entry point producing the text report.
    pub run: fn() -> String,
}

/// Registry of every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table2",
            title: "Table 2: 4D parallelism configurations",
            run: table2::run,
        },
        Experiment {
            id: "fig3",
            title: "Fig 3: exposed P2P vs extra warm-up micro-batches",
            run: fig3::run,
        },
        Experiment {
            id: "fig4",
            title: "Fig 4: gradient memory lifetime (PP × ZeRO)",
            run: fig4::run,
        },
        Experiment {
            id: "fig9",
            title: "Fig 9: AFAB vs 1F1B vs flexible PP",
            run: fig9::run,
        },
        Experiment {
            id: "fig10",
            title: "Fig 10: balanced pipeline parallelism",
            run: fig10::run,
        },
        Experiment {
            id: "fig11",
            title: "Fig 11: CP attention relative HFU",
            run: fig11::run,
        },
        Experiment {
            id: "fig12",
            title: "Fig 12: CP all-gather achieved bandwidth",
            run: fig12::run,
        },
        Experiment {
            id: "fig13",
            title: "Fig 13: all-gather CP vs ring (TE) attention",
            run: fig13::run,
        },
        Experiment {
            id: "fig14",
            title: "Fig 14: document-mask imbalance across 8K ranks",
            run: fig14::run,
        },
        Experiment {
            id: "e2e",
            title: "§7.3: end-to-end 3D/4D performance",
            run: e2e::run,
        },
        Experiment {
            id: "ordering",
            title: "§5.2: parallelism-dimension ordering ablation",
            run: ordering::run,
        },
        Experiment {
            id: "multimodal",
            title: "§3.2: multimodal encoder sharding case study",
            run: multimodal::run,
        },
        Experiment {
            id: "slowrank",
            title: "Fig 8/§6.1: top-down slow-rank localization",
            run: slowrank::run,
        },
        Experiment {
            id: "numerics",
            title: "§6.2: numerical parity & FP32 accumulation",
            run: numerics_exp::run,
        },
        Experiment {
            id: "goodput",
            title: "§6: goodput under faults, checkpoint-interval sweep",
            run: goodput::run,
        },
        Experiment {
            id: "hardware",
            title: "§8: HBM / DVFS / network ablations",
            run: hardware::run,
        },
    ]
}
