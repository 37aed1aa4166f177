//! Collective-ordering consistency (`COLL001`).
//!
//! NCCL-style collectives hang when the members of one process group
//! disagree on the sequence of calls they issue — one rank enqueues an
//! extra all-gather, or two ranks call with different byte counts, and
//! every member blocks forever. This analysis extracts, for each
//! process group the step uses, the **collective stream** each member
//! rank would issue — derived independently from that rank's own mesh
//! coordinates, exactly as real launcher code derives it — and checks
//! the streams are identical in kind, byte count and group shape.
//!
//! The extraction covers the three collective families of the step
//! model (§5.2):
//!
//! * **TP** — four exposed collectives (AG/RS around attention and
//!   FFN) per TP-communicating layer per schedule-op visit;
//! * **CP** — the KV all-gather per self-attention layer forward, with
//!   the mirrored reduce-scatter on backward (§4);
//! * **FSDP** — the parameter all-gather and gradient reduce-scatter
//!   of the ZeRO mode, per-stage under ZeRO-3 (§2.1).
//!
//! The IR ([`CollectivePlan`]) is public so mutation tests can inject a
//! divergent stream and watch [`check_plan`] catch it.

use super::{Diagnostic, RuleId};
use crate::fsdp::ZeroMode;
use crate::mesh::Dim;
use crate::pp::schedule::PpSchedule;
use crate::step::StepModel;
use crate::tp::{TpPlan, COLLECTIVES_PER_LAYER};
use cluster_model::topology::GlobalRank;
use collectives::{GroupShape, ProcessGroup};
use llm_model::layers::LayerKind;
use llm_model::PrecisionPolicy;
use std::fmt;

/// The collective primitive a stream entry launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Ring all-gather.
    AllGather,
    /// Ring reduce-scatter.
    ReduceScatter,
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollKind::AllGather => write!(f, "all-gather"),
            CollKind::ReduceScatter => write!(f, "reduce-scatter"),
        }
    }
}

/// One collective launch as a member rank sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollOp {
    /// The primitive.
    pub kind: CollKind,
    /// Per-rank payload bytes.
    pub bytes: u64,
    /// Translation-invariant shape of the group the rank believes it is
    /// calling into.
    pub shape: GroupShape,
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}B {:?}", self.kind, self.bytes, self.shape)
    }
}

/// One process group plus the collective stream each member would
/// issue.
#[derive(Debug, Clone)]
pub struct GroupStream {
    /// Human-readable group identity (dimension + anchor coordinates).
    pub label: String,
    /// The group itself.
    pub group: ProcessGroup,
    /// `(member, its stream)`, one entry per member rank.
    pub streams: Vec<(GlobalRank, Vec<CollOp>)>,
}

/// Every process group the step uses, with per-member streams.
#[derive(Debug, Clone, Default)]
pub struct CollectivePlan {
    /// All multi-member groups (singletons issue no collectives).
    pub groups: Vec<GroupStream>,
}

/// The collective family a group belongs to, selecting which stream
/// derivation its members run.
#[derive(Debug, Clone, Copy)]
enum Family {
    Tp,
    Cp,
    Fsdp,
}

/// The multi-member groups the step uses, one per pipeline rank and
/// dimension: members of a TP, CP or FSDP group always share their PP
/// coordinate, and groups at different CP/DP coordinates are exact
/// translates issuing identical streams — checking the dp=0/cp=0
/// representatives covers every group without scanning the full
/// cluster.
fn step_groups(m: &StepModel) -> Vec<(String, ProcessGroup, Family)> {
    let mesh = m.mesh;
    let mut out = Vec::new();
    for ppr in 0..mesh.pp() {
        let anchor = GlobalRank(ppr * mesh.stride(Dim::Pp));
        if mesh.tp() > 1 {
            let group = mesh.group_of(anchor, Dim::Tp);
            out.push((format!("tp group at pp={ppr}"), group, Family::Tp));
        }
        if mesh.cp() > 1 {
            let group = mesh.group_of(anchor, Dim::Cp);
            out.push((format!("cp group at pp={ppr}"), group, Family::Cp));
        }
        let fsdp = mesh.fsdp_group_of(anchor);
        if !fsdp.is_singleton() {
            out.push((format!("fsdp group at pp={ppr}"), fsdp, Family::Fsdp));
        }
    }
    out
}

/// The stream member `r` of `group` issues, derived from `r`'s own
/// coordinates.
fn member_stream(
    m: &StepModel,
    sched: &PpSchedule,
    family: Family,
    r: GlobalRank,
    group: &ProcessGroup,
    leaf: u32,
) -> Vec<CollOp> {
    match family {
        Family::Tp => tp_stream(m, sched, r, group, leaf),
        Family::Cp => cp_stream(m, sched, r, group, leaf),
        Family::Fsdp => fsdp_stream(m, sched, r, group, leaf),
    }
}

/// Extracts the collective plan of `m`: for each multi-member TP, CP
/// and FSDP group, every member's stream derived from its own
/// coordinates.
pub fn extract_plan(m: &StepModel, sched: &PpSchedule) -> CollectivePlan {
    let leaf = m.cluster.topology.gpus_per_node;
    CollectivePlan {
        groups: step_groups(m)
            .into_iter()
            .map(|(label, group, family)| GroupStream {
                label,
                streams: member_streams(&group, |r| {
                    member_stream(m, sched, family, r, &group, leaf)
                }),
                group,
            })
            .collect(),
    }
}

fn member_streams(
    group: &ProcessGroup,
    mut stream: impl FnMut(GlobalRank) -> Vec<CollOp>,
) -> Vec<(GlobalRank, Vec<CollOp>)> {
    group.ranks().iter().map(|&r| (r, stream(r))).collect()
}

/// `true` for layers that issue the four exposed TP+SP collectives
/// (mirrors the stage-time accounting in `StepModel::stage_times`).
fn layer_uses_tp(layer: &LayerKind) -> bool {
    matches!(
        layer,
        LayerKind::SelfAttention { .. } | LayerKind::CrossAttention { .. } | LayerKind::OutputHead
    )
}

/// The TP collective stream rank `r` issues over one step.
///
/// Contract relied on by [`check_step_tp_cp`]'s memoized use in the
/// search funnel: this derivation (and [`cp_stream`]) reads the mesh,
/// schedule, assignment and model — never `m.zero` or `m.recompute`.
fn tp_stream(
    m: &StepModel,
    sched: &PpSchedule,
    r: GlobalRank,
    group: &ProcessGroup,
    leaf: u32,
) -> Vec<CollOp> {
    let coords = m.mesh.coords_of(r);
    let tp = TpPlan::new(m.mesh.tp(), true);
    let tokens = m.seq / m.mesh.cp() as u64;
    let bytes = tp.collective_bytes_per_rank(&m.layout.cfg, tokens);
    let shape = group.shape(leaf);
    let mut out = Vec::new();
    for op in &sched.ranks[coords.pp as usize] {
        let stage = sched.stage_of(coords.pp, op.chunk());
        for layer in &m.assignment.stages[stage as usize] {
            if !layer_uses_tp(layer) {
                continue;
            }
            // AG before and RS after each of the attention and FFN
            // blocks; the backward mirrors the pattern with the same
            // payload.
            for _ in 0..COLLECTIVES_PER_LAYER / 2 {
                out.push(CollOp {
                    kind: CollKind::AllGather,
                    bytes,
                    shape: shape.clone(),
                });
                out.push(CollOp {
                    kind: CollKind::ReduceScatter,
                    bytes,
                    shape: shape.clone(),
                });
            }
        }
    }
    out
}

/// The CP collective stream rank `r` issues over one step: the KV
/// all-gather per self-attention forward, the mirrored reduce-scatter
/// per backward (§4).
fn cp_stream(
    m: &StepModel,
    sched: &PpSchedule,
    r: GlobalRank,
    group: &ProcessGroup,
    leaf: u32,
) -> Vec<CollOp> {
    let coords = m.mesh.coords_of(r);
    let agcp = crate::cp::AllGatherCp::new(m.mesh.cp());
    let bytes = agcp.kv_bytes_per_rank(&m.layout.cfg, m.seq) / m.mesh.tp() as u64;
    let shape = group.shape(leaf);
    let mut out = Vec::new();
    for op in &sched.ranks[coords.pp as usize] {
        let stage = sched.stage_of(coords.pp, op.chunk());
        for layer in &m.assignment.stages[stage as usize] {
            if !matches!(layer, LayerKind::SelfAttention { .. }) {
                continue;
            }
            out.push(CollOp {
                kind: if op.is_forward() {
                    CollKind::AllGather
                } else {
                    CollKind::ReduceScatter
                },
                bytes,
                shape: shape.clone(),
            });
        }
    }
    out
}

/// The FSDP collective stream rank `r` issues over one step, by ZeRO
/// mode: ZeRO-1/2 all-gather parameters once and reduce-scatter
/// gradients per virtual stage; ZeRO-3 all-gathers each stage's
/// parameters before every forward and backward visit (§2.1).
///
/// Contract relied on by [`check_step_fsdp`]'s memoized use in the
/// search funnel: reads `m.zero` but never `m.recompute`.
fn fsdp_stream(
    m: &StepModel,
    sched: &PpSchedule,
    r: GlobalRank,
    group: &ProcessGroup,
    leaf: u32,
) -> Vec<CollOp> {
    let coords = m.mesh.coords_of(r);
    let policy = PrecisionPolicy::llama3();
    let shape = group.shape(leaf);
    // One table lookup per schedule op: the per-chunk parameter count
    // depends only on (pp, chunk), not on the op, and recomputing it
    // inside the ZeRO-3 loop would walk the stage's layer list once per
    // micro-batch visit.
    let chunk_params: Vec<u64> = (0..sched.v)
        .map(|chunk| {
            let stage = sched.stage_of(coords.pp, chunk);
            m.assignment.stages[stage as usize]
                .iter()
                .map(|l| l.params(&m.layout.cfg))
                .sum::<u64>()
                / m.mesh.tp() as u64
        })
        .collect();
    let chunk_params = |chunk: u32| chunk_params[chunk as usize];
    let rank_params: u64 = (0..sched.v).map(chunk_params).sum();
    let mut out = Vec::new();
    match m.zero {
        ZeroMode::Zero1 | ZeroMode::Zero2 => {
            out.push(CollOp {
                kind: CollKind::AllGather,
                bytes: rank_params * policy.param_bytes,
                shape: shape.clone(),
            });
            // ZeRO-2 reduce-scatters after each virtual stage's last
            // micro-batch; ZeRO-1 issues one step-end reduce-scatter.
            let rs_chunks: u32 = if m.zero == ZeroMode::Zero2 {
                sched.v
            } else {
                1
            };
            for c in 0..rs_chunks {
                let params = if rs_chunks == 1 {
                    rank_params
                } else {
                    chunk_params(c)
                };
                out.push(CollOp {
                    kind: CollKind::ReduceScatter,
                    bytes: params * policy.grad_bytes,
                    shape: shape.clone(),
                });
            }
        }
        ZeroMode::Zero3 => {
            for op in &sched.ranks[coords.pp as usize] {
                out.push(CollOp {
                    kind: CollKind::AllGather,
                    bytes: chunk_params(op.chunk()) * policy.param_bytes,
                    shape: shape.clone(),
                });
            }
            for c in 0..sched.v {
                out.push(CollOp {
                    kind: CollKind::ReduceScatter,
                    bytes: chunk_params(c) * policy.grad_bytes,
                    shape: shape.clone(),
                });
            }
        }
    }
    out
}

/// Compares one member's stream against the group's reference stream
/// and renders the first divergence as the `COLL001` error both
/// [`check_plan`] and [`check_step`] report.
fn diff_streams(
    label: &str,
    ref_rank: GlobalRank,
    ref_stream: &[CollOp],
    rank: GlobalRank,
    stream: &[CollOp],
) -> Option<Diagnostic> {
    let n = ref_stream.len().min(stream.len());
    let i = (0..n)
        .find(|&i| ref_stream[i] != stream[i])
        .or_else(|| (ref_stream.len() != stream.len()).then_some(n))?;
    let show = |s: &[CollOp], r: GlobalRank| match s.get(i) {
        Some(op) => format!("rank {}: op[{i}] = {op}", r.0),
        None => format!("rank {}: stream ends after {} ops", r.0, s.len()),
    };
    let op = stream
        .get(i)
        .map(|o| o.to_string())
        .unwrap_or_else(|| "<end of stream>".to_string());
    Some(
        Diagnostic::error(
            RuleId::Coll001,
            format!(
                "collective streams diverge on {label} at op {i}: rank {} and rank {} would \
                 hang in a mismatched collective",
                ref_rank.0, rank.0
            ),
        )
        .at_rank(rank.0)
        .at_op(op)
        .with_witness(vec![show(ref_stream, ref_rank), show(stream, rank)]),
    )
}

/// Checks every group's member streams for divergence. The first
/// mismatching op per divergent group becomes one `COLL001` error
/// naming the group, both ranks and both ops — the static image of the
/// NCCL hang the divergence would cause.
pub fn check_plan(plan: &CollectivePlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for gs in &plan.groups {
        let Some((ref_rank, ref_stream)) = gs.streams.first() else {
            continue;
        };
        for (rank, stream) in &gs.streams[1..] {
            if let Some(d) = diff_streams(&gs.label, *ref_rank, ref_stream, *rank, stream) {
                diags.push(d);
                break; // one finding per group names the defect
            }
        }
    }
    diags
}

/// Extracts and checks in one call. Reports exactly what
/// `check_plan(&extract_plan(m, sched))` would, but derives one stream
/// per (family, pp coordinate): a member's stream depends on its
/// coordinates only through `coords.pp`, so only members at another pp
/// coordinate than the group's first are derived and compared.
pub fn check_step(m: &StepModel, sched: &PpSchedule) -> Vec<Diagnostic> {
    check_groups(m, sched, |_| true)
}

/// The TP + CP subset of [`check_step`]. Their stream derivations read
/// neither the ZeRO mode nor the recompute flag, so the search funnel
/// memoizes this verdict across those axes.
pub(crate) fn check_step_tp_cp(m: &StepModel, sched: &PpSchedule) -> Vec<Diagnostic> {
    check_groups(m, sched, |f| !matches!(f, Family::Fsdp))
}

/// The FSDP subset of [`check_step`]: depends on the ZeRO mode but not
/// on the recompute flag.
pub(crate) fn check_step_fsdp(m: &StepModel, sched: &PpSchedule) -> Vec<Diagnostic> {
    check_groups(m, sched, |f| matches!(f, Family::Fsdp))
}

fn check_groups(
    m: &StepModel,
    sched: &PpSchedule,
    keep: impl Fn(Family) -> bool,
) -> Vec<Diagnostic> {
    let leaf = m.cluster.topology.gpus_per_node;
    let mut diags = Vec::new();
    for (label, group, family) in step_groups(m) {
        if !keep(family) {
            continue;
        }
        let Some((&first, rest)) = group.ranks().split_first() else {
            continue;
        };
        let ref_pp = m.mesh.coords_of(first).pp;
        let ref_stream = member_stream(m, sched, family, first, &group, leaf);
        for &r in rest {
            // Every derivation reads a member only through its pp
            // coordinate, so a member sharing the reference's pp
            // issues the reference stream: one derivation per (family,
            // pp coordinate). `check_plan` still compares every member.
            if m.mesh.coords_of(r).pp == ref_pp {
                continue;
            }
            let stream = member_stream(m, sched, family, r, &group, leaf);
            if let Some(d) = diff_streams(&label, first, &ref_stream, r, &stream) {
                diags.push(d);
                break;
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh4D;
    use crate::pp::balance::{BalancePolicy, StageAssignment};
    use crate::pp::schedule::ScheduleKind;
    use cluster_model::topology::Cluster;
    use llm_model::masks::MaskSpec;
    use llm_model::{ModelLayout, TransformerConfig};

    fn step(zero: ZeroMode) -> StepModel {
        let cfg = TransformerConfig::llama3_405b_scaled(28);
        let layout = ModelLayout::text(cfg);
        let mesh = Mesh4D::new(4, 2, 2, 2);
        let assignment = StageAssignment::build(&layout, 2, 7, BalancePolicy::Uniform);
        StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::Flexible { nc: 2 },
            zero,
            bs: 4,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute: false,
        }
    }

    #[test]
    fn real_plans_have_consistent_streams() {
        for zero in [ZeroMode::Zero1, ZeroMode::Zero2, ZeroMode::Zero3] {
            let m = step(zero);
            let sched = m.schedule().unwrap();
            let plan = extract_plan(&m, &sched);
            // tp + cp + fsdp groups per pipeline rank.
            assert_eq!(plan.groups.len(), 3 * 2);
            assert!(plan.groups.iter().all(|g| g.streams.len() >= 2));
            assert!(plan
                .groups
                .iter()
                .all(|g| g.streams.iter().all(|(_, s)| !s.is_empty())));
            assert!(check_plan(&plan).is_empty(), "{zero:?}");
        }
    }

    #[test]
    fn extra_all_gather_on_one_rank_is_flagged() {
        let m = step(ZeroMode::Zero1);
        let sched = m.schedule().unwrap();
        let mut plan = extract_plan(&m, &sched);
        let gs = &mut plan.groups[0];
        let (victim, stream) = &mut gs.streams[1];
        let extra = stream[0].clone();
        let victim = victim.0;
        stream.insert(
            0,
            CollOp {
                kind: CollKind::AllGather,
                ..extra
            },
        );
        let diags = check_plan(&plan);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::Coll001);
        assert_eq!(diags[0].rank, Some(victim));
    }

    #[test]
    fn byte_count_divergence_is_flagged() {
        let m = step(ZeroMode::Zero2);
        let sched = m.schedule().unwrap();
        let mut plan = extract_plan(&m, &sched);
        let gs = plan.groups.last_mut().unwrap();
        let last = gs.streams.len() - 1;
        gs.streams[last].1.last_mut().unwrap().bytes += 1;
        let diags = check_plan(&plan);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("fsdp group"));
    }

    #[test]
    fn singleton_dimensions_produce_no_groups() {
        let cfg = TransformerConfig::llama3_405b_scaled(8);
        let layout = ModelLayout::text(cfg);
        let mesh = Mesh4D::new(1, 1, 8, 1);
        let assignment = StageAssignment::build(&layout, 8, 1, BalancePolicy::Uniform);
        let m = StepModel {
            cluster: Cluster::llama3(mesh.num_gpus()),
            mesh,
            layout,
            assignment,
            schedule: ScheduleKind::AllFwdAllBwd,
            zero: ZeroMode::Zero1,
            bs: 2,
            seq: 8192,
            mask: MaskSpec::Causal,
            recompute: false,
        };
        let sched = m.schedule().unwrap();
        assert!(extract_plan(&m, &sched).groups.is_empty());
    }
}
