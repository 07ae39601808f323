//! The spatial machine (ISP-I..XVI): a multi-processor whose IPs connect
//! to other IPs, so several small processors can *fuse* into one wider
//! processor.
//!
//! Fusion is the executable meaning of the paper's IP–IP extension: "a
//! bigger IP can be divided among two smaller IPs" / "systems ... have the
//! ability to create complex computing machines by connecting IPs or DPs
//! together".  A fused group is driven by its leader's program in lockstep
//! across all member DPs — a dynamically-created SIMD sub-machine living
//! inside a MIMD fabric — while unfused cores keep running independently.
//!
//! Which fusions are possible is governed by the IP–IP fabric topology:
//! a full crossbar (MATRIX) fuses anything; a 3-hop window (DRRA) only
//! fuses neighbours.

use skilltax_model::{ArchSpec, Count, Link, Relation};

use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::dp::{DataProcessor, LocalOutcome};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::interconnect::FabricTopology;
use crate::isa::{Instr, Word};
use crate::mem::{BankedMemory, DataTopology};
use crate::multi::MultiSubtype;
use crate::profile::Phase;
use crate::program::Program;
use crate::telemetry::{EventKind, NullTracer, Tracer};
use crate::uniprocessor::DEFAULT_CYCLE_LIMIT;

/// A spatial machine: MIMD cores plus an IP–IP fabric enabling fusion.
#[derive(Debug)]
pub struct SpatialMachine {
    subtype: MultiSubtype,
    ip_ip: FabricTopology,
    n: usize,
    dps: Vec<DataProcessor>,
    mem: BankedMemory,
    /// `group[i]` is the leader of core `i`'s fused group (itself if solo).
    group: Vec<usize>,
    cycle_limit: u64,
    dense_reference: bool,
    cancel: CancelToken,
}

impl SpatialMachine {
    /// A spatial machine of `cores` cores.  `subtype` carries the same
    /// 4-bit crossbar code as IMP (the ISP sub-types mirror them); `ip_ip`
    /// is the IP–IP fabric (crossbar for MATRIX-style, window for
    /// DRRA-style).
    pub fn new(
        subtype: MultiSubtype,
        ip_ip: FabricTopology,
        cores: usize,
        bank_words: usize,
    ) -> Result<SpatialMachine, MachineError> {
        if cores < 2 {
            return Err(MachineError::config(
                "a spatial machine needs at least two cores",
            ));
        }
        if ip_ip == FabricTopology::None {
            return Err(MachineError::config(
                "a spatial machine without an IP-IP switch is just a multi-processor; \
                 use MultiMachine",
            ));
        }
        let topology = if subtype.dp_dm_crossbar() {
            DataTopology::SharedCrossbar
        } else {
            DataTopology::PrivateBanks
        };
        Ok(SpatialMachine {
            subtype,
            ip_ip,
            n: cores,
            dps: (0..cores).map(DataProcessor::new).collect(),
            mem: BankedMemory::new(cores, bank_words, topology),
            group: (0..cores).collect(),
            cycle_limit: DEFAULT_CYCLE_LIMIT,
            dense_reference: false,
            cancel: CancelToken::new(),
        })
    }

    /// Override the livelock guard.
    pub fn with_cycle_limit(mut self, limit: u64) -> SpatialMachine {
        self.cycle_limit = limit;
        self
    }

    /// Install a cancellation token for subsequent runs (deadline cycles
    /// stop deterministically across both schedulers; the flag stops
    /// promptly, polled once per cycle).
    pub fn with_cancel(mut self, cancel: CancelToken) -> SpatialMachine {
        self.cancel = cancel;
        self
    }

    /// Force the dense reference loop instead of the active-set
    /// scheduler (see DESIGN.md §9); the two are counter-identical.
    pub fn with_dense_reference(mut self, dense: bool) -> SpatialMachine {
        self.dense_reference = dense;
        self
    }

    /// The ISP class name corresponding to this machine's sub-type code.
    pub fn class_name(&self) -> String {
        format!(
            "ISP-{}",
            skilltax_taxonomy::roman::to_roman(u16::from(self.subtype.code()) + 1)
        )
    }

    /// The banked memory.
    pub fn memory_mut(&mut self) -> &mut BankedMemory {
        &mut self.mem
    }

    /// The banked memory.
    pub fn memory(&self) -> &BankedMemory {
        &self.mem
    }

    /// A core's register, after a run.
    pub fn core_reg(&self, core: usize, r: u8) -> Word {
        self.dps[core].reg(r)
    }

    /// Fuse core `follower` into `leader`'s group.  Both must be reachable
    /// over the IP–IP fabric; the follower's IP goes quiet and its DP joins
    /// the leader's lockstep broadcast — two IPs have become one bigger IP.
    pub fn fuse(&mut self, leader: usize, follower: usize) -> Result<(), MachineError> {
        if leader >= self.n || follower >= self.n || leader == follower {
            return Err(MachineError::config(format!(
                "cannot fuse {follower} into {leader}"
            )));
        }
        let root = self.group[leader];
        self.ip_ip.route(root, follower, self.n)?;
        self.group[follower] = root;
        Ok(())
    }

    /// Undo all fusions.
    pub fn defuse_all(&mut self) {
        for i in 0..self.n {
            self.group[i] = i;
        }
    }

    /// Members of each active group, keyed by leader.
    fn groups(&self) -> Vec<(usize, Vec<usize>)> {
        let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
        for leader in 0..self.n {
            if self.group[leader] == leader {
                let members: Vec<usize> =
                    (0..self.n).filter(|&i| self.group[i] == leader).collect();
                out.push((leader, members));
            }
        }
        out
    }

    /// The structural [`ArchSpec`] of this machine.
    pub fn spec(&self) -> ArchSpec {
        let n = (self.n as u32).max(2);
        let pick = |x: bool| {
            if x {
                Link::crossbar_between(n, n)
            } else {
                Link::direct_between(n, n)
            }
        };
        let dp_dp = if self.subtype.dp_dp_crossbar() {
            Link::crossbar_between(n, n)
        } else {
            Link::None
        };
        let ip_ip = match self.ip_ip {
            FabricTopology::Window { hops } => Link::crossbar_between(n, (2 * hops as u32).min(n)),
            _ => Link::crossbar_between(n, n),
        };
        ArchSpec::builder(format!("spatial-{}x{}", self.class_name(), n))
            .ips(Count::fixed(n))
            .dps(Count::fixed(n))
            .link(Relation::IpIp, ip_ip)
            .link(Relation::IpDp, pick(self.subtype.ip_dp_crossbar()))
            .link(Relation::IpIm, pick(self.subtype.ip_im_crossbar()))
            .link(Relation::DpDm, pick(self.subtype.dp_dm_crossbar()))
            .link(Relation::DpDp, dp_dp)
            .build_unchecked()
    }

    /// Run one program per *group leader* (followers' programs are ignored
    /// — their IPs are fused away).  Each leader broadcasts its instruction
    /// stream across its group's DPs in lockstep; control flow follows the
    /// leader's DP.
    pub fn run(&mut self, programs: &[Program]) -> Result<Stats, MachineError> {
        self.run_traced(programs, &mut NullTracer)
    }

    /// [`SpatialMachine::run`] with observation hooks; with a
    /// [`NullTracer`] this monomorphises back to the plain group loop.
    pub fn run_traced<T: Tracer>(
        &mut self,
        programs: &[Program],
        tracer: &mut T,
    ) -> Result<Stats, MachineError> {
        if programs.len() != self.n {
            return Err(MachineError::config(format!(
                "{} programs for {} cores",
                programs.len(),
                self.n
            )));
        }
        let groups = self.groups();
        let mut pcs = vec![0usize; self.n];
        let mut halted = vec![false; self.n]; // per leader
        let mut stats = Stats::default();
        let base: Vec<(u64, u64, u64)> = self.dps.iter().map(|d| d.counters()).collect();
        let budget = RunBudget::resolve(self.cycle_limit, &self.cancel);
        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Slice);
        if self.dense_reference {
            // Dense reference loop: every group is visited every cycle.
            loop {
                if groups.iter().all(|(leader, _)| halted[*leader]) {
                    break;
                }
                if self.cancel.flag_raised() {
                    return Err(flag_trip(stats.cycles, stats, tracer));
                }
                if stats.cycles >= budget.limit() {
                    return Err(budget.trip(stats.cycles, stats, tracer));
                }
                stats.cycles += 1;
                for (leader, members) in &groups {
                    if halted[*leader] {
                        continue;
                    }
                    self.step_group(
                        programs,
                        *leader,
                        members,
                        &mut pcs,
                        &mut halted,
                        &mut stats,
                        tracer,
                    )?;
                }
            }
        } else {
            // Active-set scheduler: halted groups drop out of the scan
            // entirely (see DESIGN.md §9).  `groups()` yields groups in
            // ascending leader order and the ordered remove preserves
            // it, so the within-cycle step order matches the dense loop
            // exactly.
            let mut active: Vec<usize> = (0..groups.len()).collect();
            loop {
                if active.is_empty() {
                    break;
                }
                if self.cancel.flag_raised() {
                    return Err(flag_trip(stats.cycles, stats, tracer));
                }
                if stats.cycles >= budget.limit() {
                    return Err(budget.trip(stats.cycles, stats, tracer));
                }
                stats.cycles += 1;
                let mut idx = 0;
                while idx < active.len() {
                    let (leader, members) = &groups[active[idx]];
                    self.step_group(
                        programs,
                        *leader,
                        members,
                        &mut pcs,
                        &mut halted,
                        &mut stats,
                        tracer,
                    )?;
                    if halted[*leader] {
                        active.remove(idx);
                    } else {
                        idx += 1;
                    }
                }
            }
        }
        tracer.span_exit(stats.cycles);
        tracer.span_exit(stats.cycles);
        for (i, dp) in self.dps.iter().enumerate() {
            let (alu, mr, mw) = dp.counters();
            let (b_alu, b_mr, b_mw) = base[i];
            stats.alu_ops += alu - b_alu;
            stats.mem_reads += mr - b_mr;
            stats.mem_writes += mw - b_mw;
            if tracer.enabled() {
                tracer.sample("dp.alu_ops", alu - b_alu);
                tracer.sample("dp.mem_ops", (mr - b_mr) + (mw - b_mw));
            }
        }
        Ok(stats)
    }

    /// One cycle of one live group: fetch the leader's instruction and
    /// either retire the group, execute control flow on the leader's DP,
    /// or broadcast across every member DP in lockstep.
    #[allow(clippy::too_many_arguments)]
    fn step_group<T: Tracer>(
        &mut self,
        programs: &[Program],
        leader: usize,
        members: &[usize],
        pcs: &mut [usize],
        halted: &mut [bool],
        stats: &mut Stats,
        tracer: &mut T,
    ) -> Result<(), MachineError> {
        let Some(instr) = programs[leader].fetch(pcs[leader]) else {
            halted[leader] = true;
            return Ok(());
        };
        match instr {
            Instr::Send(..) | Instr::Recv(..) | Instr::GetLane(..) => {
                return Err(MachineError::unsupported(
                    self.class_name(),
                    "fused-group broadcast does not combine with explicit \
                     message instructions in this model",
                ));
            }
            _ if instr.is_control() => {
                stats.instructions += 1;
                tracer.record(stats.cycles, EventKind::Issue);
                match self.dps[leader].execute_traced(instr, &mut self.mem, stats.cycles, tracer)? {
                    LocalOutcome::Next => pcs[leader] += 1,
                    LocalOutcome::Branch(t) => pcs[leader] = t,
                    LocalOutcome::Halt => halted[leader] = true,
                }
            }
            _ => {
                for &m in members {
                    self.dps[m].execute_traced(instr, &mut self.mem, stats.cycles, tracer)?;
                }
                stats.instructions += members.len() as u64;
                tracer.record_many(stats.cycles, EventKind::Issue, members.len() as u64);
                pcs[leader] += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;

    fn lane_tag_program() -> Program {
        // mem[0] = 1000 + lane
        let mut asm = Assembler::new();
        asm.emit(Instr::LaneId(0))
            .movi(1, 1000)
            .emit(Instr::Add(1, 1, 0))
            .movi(2, 0)
            .emit(Instr::Store(2, 1))
            .emit(Instr::Halt);
        asm.assemble().unwrap()
    }

    fn machine(code: u8, ip_ip: FabricTopology, cores: usize) -> SpatialMachine {
        SpatialMachine::new(MultiSubtype::from_code(code).unwrap(), ip_ip, cores, 8).unwrap()
    }

    #[test]
    fn unfused_spatial_machine_behaves_like_mimd() {
        let mut m = machine(0, FabricTopology::Crossbar, 4);
        let progs: Vec<Program> = (0..4).map(|_| lane_tag_program()).collect();
        m.run(&progs).unwrap();
        for core in 0..4 {
            assert_eq!(m.memory().bank(core).contents()[0], 1000 + core as Word);
        }
    }

    #[test]
    fn fused_group_broadcasts_the_leader_program() {
        let mut m = machine(0, FabricTopology::Crossbar, 4);
        m.fuse(0, 1).unwrap();
        m.fuse(0, 2).unwrap();
        // Followers' programs are dummies that would store 9999 — they must
        // NOT run.
        let mut dummy = Assembler::new();
        dummy
            .movi(0, 0)
            .movi(1, 9999)
            .emit(Instr::Store(0, 1))
            .emit(Instr::Halt);
        let dummy = dummy.assemble().unwrap();
        let progs = vec![
            lane_tag_program(),
            dummy.clone(),
            dummy.clone(),
            lane_tag_program(),
        ];
        m.run(&progs).unwrap();
        // Group {0,1,2} all executed the leader's program, each on its own
        // lane; core 3 ran solo.
        for core in 0..4 {
            assert_eq!(m.memory().bank(core).contents()[0], 1000 + core as Word);
        }
    }

    #[test]
    fn window_fabric_limits_fusion_distance() {
        // DRRA-style 3-hop window.
        let mut m = machine(3, FabricTopology::Window { hops: 3 }, 16);
        m.fuse(5, 8).unwrap(); // 3 hops: allowed
        assert!(matches!(
            m.fuse(5, 9),
            Err(MachineError::RouteDenied { .. })
        ));
        assert!(matches!(
            m.fuse(0, 12),
            Err(MachineError::RouteDenied { .. })
        ));
    }

    #[test]
    fn fusion_transfers_to_the_group_root() {
        let mut m = machine(0, FabricTopology::Window { hops: 3 }, 16);
        m.fuse(0, 2).unwrap();
        // Fusing 4 into 2's group routes against the *root* (0): distance 4
        // exceeds the window even though |2-4| = 2.
        assert!(matches!(
            m.fuse(2, 4),
            Err(MachineError::RouteDenied { .. })
        ));
        m.defuse_all();
        m.fuse(2, 4).unwrap();
    }

    #[test]
    fn spatial_machine_requires_an_ip_ip_switch() {
        assert!(SpatialMachine::new(
            MultiSubtype::from_code(0).unwrap(),
            FabricTopology::None,
            4,
            8
        )
        .is_err());
    }

    #[test]
    fn specs_classify_as_isp() {
        use skilltax_taxonomy::classify;
        for code in [0u8, 3, 15] {
            let m = machine(code, FabricTopology::Crossbar, 4);
            let c = classify(&m.spec()).unwrap();
            assert_eq!(c.name().to_string(), m.class_name(), "code {code}");
        }
        // Window fabric is still a (limited) crossbar taxonomically.
        let drra_like = machine(3, FabricTopology::Window { hops: 3 }, 16);
        let c = classify(&drra_like.spec()).unwrap();
        assert_eq!(c.name().to_string(), "ISP-IV");
    }

    #[test]
    fn fusing_bad_indices_fails() {
        let mut m = machine(0, FabricTopology::Crossbar, 4);
        assert!(m.fuse(0, 0).is_err());
        assert!(m.fuse(0, 9).is_err());
    }
}
