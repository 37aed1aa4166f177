//! Property-based tests on cross-crate invariants.

use llama3_parallelism::core::cp::CpSharding;
use llama3_parallelism::core::mesh::{Dim, Mesh4D};
use llama3_parallelism::core::pp::schedule::{PpSchedule, ScheduleKind};
use llama3_parallelism::core::pp::sim::{PpProgram, PpTiming, TableCosts};
use llama3_parallelism::model::MaskSpec;
use llama3_parallelism::sim::fluid::{FluidNet, Transfer};
use llama3_parallelism::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Any flexible schedule is well-formed and deadlock-free, for any
    /// shape — the §3.1.1 guarantee.
    #[test]
    fn flexible_schedules_always_execute(
        pp in 1u32..6,
        v in 1u32..4,
        nmb in 1u32..20,
        nc_seed in 0u32..100,
        p2p_us in 0u64..100,
    ) {
        let nc = nc_seed % nmb + 1;
        let sched = PpSchedule::build(ScheduleKind::Flexible { nc }, pp, v, nmb).unwrap();
        sched.assert_well_formed();
        let us = SimDuration::from_micros;
        let costs = TableCosts::uniform(sched.num_stages(), us(100), us(200), us(p2p_us));
        let mut t = PpTiming::default();
        PpProgram::compile(&sched).expect("deadlock-free").run(&costs, &[], &mut t);
        // Makespan at least the per-rank compute lower bound.
        let work = SimDuration::from_micros(300) * (nmb as u64 * v as u64);
        prop_assert!(t.makespan[0] >= work);
    }

    /// Zig-zag CP sharding partitions the causal workload exactly and
    /// perfectly evenly.
    #[test]
    fn zigzag_partitions_causal_work(cp in 1u32..9, chunk_w in 1u64..65) {
        let seq = 2 * cp as u64 * chunk_w;
        let sharding = CpSharding::new(cp);
        let pairs = sharding.all_rank_pairs(seq, &MaskSpec::Causal);
        let total: u128 = pairs.iter().sum();
        prop_assert_eq!(total, MaskSpec::Causal.attended_pairs(seq));
        prop_assert!(pairs.windows(2).all(|w| w[0] == w[1]));
    }

    /// Document masks: per-range pair counts always sum to the total,
    /// and never exceed the causal count.
    #[test]
    fn doc_mask_accounting_consistent(lens in prop::collection::vec(1u64..200, 1..20)) {
        let seq: u64 = lens.iter().sum();
        let mask = MaskSpec::document(lens);
        let mid = seq / 2;
        let a = mask.attended_pairs_in(seq, 0, mid);
        let b = mask.attended_pairs_in(seq, mid, seq);
        prop_assert_eq!(a + b, mask.attended_pairs(seq));
        prop_assert!(mask.attended_pairs(seq) <= MaskSpec::Causal.attended_pairs(seq));
    }

    /// Mesh rank↔coordinate mapping is a bijection and groups partition
    /// the mesh in every dimension.
    #[test]
    fn mesh_bijection(tp in 1u32..5, cp in 1u32..4, pp in 1u32..4, dp in 1u32..4) {
        let mesh = Mesh4D::new(tp, cp, pp, dp);
        for r in 0..mesh.num_gpus() {
            let rank = llama3_parallelism::cluster::GlobalRank(r);
            prop_assert_eq!(mesh.rank_of(mesh.coords_of(rank)), rank);
        }
        for dim in Dim::INNER_TO_OUTER {
            let groups = mesh.groups(dim);
            let covered: usize = groups.iter().map(|g| g.len()).sum();
            prop_assert_eq!(covered as u32, mesh.num_gpus());
        }
    }

    /// The fluid network conserves work: a flow of B bytes on a single
    /// link of capacity C finishes no earlier than B/C, and sharing
    /// never speeds anyone up.
    #[test]
    fn fluid_conservation(bytes in 1.0f64..1e9, peers in 1usize..6) {
        let mut net = FluidNet::new();
        let link = net.add_link(1e9);
        let transfers: Vec<Transfer> = (0..peers)
            .map(|_| Transfer { route: vec![link], bytes, start: SimTime::ZERO })
            .collect();
        let out = net.run(transfers).unwrap();
        let lower = bytes / 1e9;
        for o in &out {
            prop_assert!(o.finish.as_secs_f64() >= lower * 0.999);
        }
        // All-equal flows sharing one link finish together at
        // peers × B / C.
        let expect = lower * peers as f64;
        prop_assert!((out[0].finish.as_secs_f64() - expect).abs() / expect < 1e-3);
    }

    /// Peak in-flight activations never exceed the total forwards and
    /// grow monotonically with nc.
    #[test]
    fn in_flight_monotone_in_nc(pp in 2u32..5, v in 2u32..4, rounds in 2u32..4) {
        let nmb = pp * rounds;
        let mut last = 0u32;
        for nc in pp..=nmb {
            let s = PpSchedule::build(ScheduleKind::Flexible { nc }, pp, v, nmb).unwrap();
            let peak = s.peak_in_flight(0);
            prop_assert!(peak <= v * nmb);
            prop_assert!(peak + 1 >= last, "nc={nc}: {peak} vs {last}");
            last = peak;
        }
    }
}
