//! §3.2 case study: multimodal training — image-encoder sharding
//! options and the 448² → 672² resolution bump.

use crate::report::{pct, Table};
use llm_model::multimodal::VitConfig;
use parallelism_core::multimodal::{
    evaluate_wrapping, production_multimodal, EncoderSharding, StageWrapping,
};

/// Runs the experiment and returns the report.
pub fn run() -> String {
    let mut t = Table::new(
        "§3.2 — encoder sharding options (paper: option 2 encoder share grew to 33 % after the 672² bump; option 3 cut it to ~8 % and recovered TFLOPs)",
        &["encoder", "option", "encoder share", "TFLOPs/GPU", "step time"],
    );
    for (vit_name, vit) in [
        ("448²/32L", VitConfig::vit_448()),
        ("672²/48L", VitConfig::vit_672_deep()),
    ] {
        for (opt_name, sharding) in [
            ("1: with first stage", EncoderSharding::WithFirstStage),
            (
                "2: preprocess on rank 0",
                EncoderSharding::PreprocessOnFirstRank,
            ),
            (
                "3: replicate across PP",
                EncoderSharding::ReplicatedAcrossRanks,
            ),
        ] {
            let r = production_multimodal(vit.clone(), sharding).simulate();
            t.row(&[
                vit_name.to_string(),
                opt_name.to_string(),
                pct(r.encoder_share),
                format!("{:.1}", r.tflops_per_gpu),
                format!("{}", r.step_time),
            ]);
        }
    }

    // §3.2.2: wrapping heterogeneous layers into virtual stages.
    let step = production_multimodal(
        VitConfig::vit_672_deep(),
        EncoderSharding::ReplicatedAcrossRanks,
    );
    let mut w = Table::new(
        "§3.2.2 — virtual-stage wrapping (paper chose option 1: n self + 1 cross per stage, 4:1 ratio)",
        &["wrapping", "virtual stages", "bubble ratio", "stage imbalance"],
    );
    for (name, wrap) in [
        (
            "option 1: n self + 1 cross per stage",
            StageWrapping::GroupedSelfPlusCross,
        ),
        ("option 2: homogeneous stages", StageWrapping::Homogeneous),
    ] {
        let r = evaluate_wrapping(&step, wrap);
        w.row(&[
            name.to_string(),
            r.stages.to_string(),
            pct(r.bubble_ratio),
            format!("{:.2}×", r.imbalance),
        ]);
    }
    format!("{}{}", t.render(), w.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option3_beats_option2_after_resolution_bump() {
        let opt2 = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::PreprocessOnFirstRank,
        )
        .simulate();
        let opt3 = production_multimodal(
            VitConfig::vit_672_deep(),
            EncoderSharding::ReplicatedAcrossRanks,
        )
        .simulate();
        assert!(opt3.step_time < opt2.step_time);
        assert!(opt3.encoder_share < opt2.encoder_share);
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("replicate across PP"));
    }
}
