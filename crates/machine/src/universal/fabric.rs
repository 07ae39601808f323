//! The configurable LUT fabric: cells + programmable routing + optional
//! per-cell flip-flops.
//!
//! Loading a [`Bitstream`] turns the raw fabric into a
//! [`ConfiguredFabric`]; the same silicon becomes a datapath (pure
//! combinational network), an instruction processor (a registered state
//! machine), or both at once — the defining property of the USP class.

use crate::cancel::{flag_trip, CancelToken, RunBudget};
use crate::error::MachineError;
use crate::exec::Stats;
use crate::profile::Phase;
use crate::telemetry::{EventKind, NullTracer, Tracer};

use super::lut::LutCell;

/// Where a cell input or a fabric output comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Primary input number `k`.
    Primary(usize),
    /// Output of cell `id` (its FF output if the cell is registered).
    Cell(usize),
    /// Constant zero.
    Zero,
    /// Constant one.
    One,
}

/// Configuration of one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellConfig {
    /// The LUT contents.
    pub lut: LutCell,
    /// Input routing, one source per LUT input.
    pub inputs: Vec<Source>,
    /// Route the output through a flip-flop (sequential) or not
    /// (combinational).
    pub registered: bool,
}

/// A full fabric configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitstream {
    /// Cell configurations (cells beyond the vector are unused).
    pub cells: Vec<CellConfig>,
    /// Fabric outputs.
    pub outputs: Vec<Source>,
}

impl Bitstream {
    /// Total configuration bits: truth tables + routing selects + the
    /// FF-mode bit per used cell (mirrors the `skilltax-estimate` LUT
    /// model: table + routing).
    pub fn config_bits(&self, fabric: &LutFabric) -> u64 {
        let route_bits = |_: &Source| -> u64 {
            // Each source select addresses primaries + cells + 2 constants.
            let space = (fabric.primary_inputs + fabric.n_cells + 2) as u64;
            u64::from(64 - (space - 1).leading_zeros())
        };
        let mut bits = 0u64;
        for cell in &self.cells {
            bits += cell.lut.table_bits() as u64;
            bits += 1; // registered flag
            for src in &cell.inputs {
                bits += route_bits(src);
            }
        }
        for out in &self.outputs {
            bits += route_bits(out);
        }
        bits
    }
}

/// An unconfigured fabric: capacity only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutFabric {
    /// Number of cells.
    pub n_cells: usize,
    /// LUT arity.
    pub k: usize,
    /// Number of primary inputs.
    pub primary_inputs: usize,
}

impl LutFabric {
    /// A fabric of `n_cells` k-LUTs with `primary_inputs` input pads.
    pub fn new(n_cells: usize, k: usize, primary_inputs: usize) -> LutFabric {
        LutFabric {
            n_cells,
            k,
            primary_inputs,
        }
    }

    /// Validate a bitstream and produce a runnable configured fabric.
    ///
    /// Rejected: too many cells, arity mismatches, dangling sources, and
    /// *combinational cycles* (a cycle is only legal if it passes through
    /// at least one registered cell).
    pub fn configure(&self, bitstream: &Bitstream) -> Result<ConfiguredFabric, MachineError> {
        if bitstream.cells.len() > self.n_cells {
            return Err(MachineError::config(format!(
                "bitstream uses {} cells but the fabric has {}",
                bitstream.cells.len(),
                self.n_cells
            )));
        }
        let n = bitstream.cells.len();
        let check_source = |src: &Source| -> Result<(), MachineError> {
            match *src {
                Source::Primary(k) if k >= self.primary_inputs => {
                    Err(MachineError::config(format!(
                        "source references primary input {k} of {}",
                        self.primary_inputs
                    )))
                }
                Source::Cell(id) if id >= n => Err(MachineError::config(format!(
                    "source references cell {id} of {n}"
                ))),
                _ => Ok(()),
            }
        };
        for (id, cell) in bitstream.cells.iter().enumerate() {
            if cell.lut.arity() != cell.inputs.len() {
                return Err(MachineError::config(format!(
                    "cell {id}: {}-LUT with {} routed inputs",
                    cell.lut.arity(),
                    cell.inputs.len()
                )));
            }
            if cell.lut.arity() > self.k {
                return Err(MachineError::config(format!(
                    "cell {id}: {}-LUT on a {}-LUT fabric",
                    cell.lut.arity(),
                    self.k
                )));
            }
            for src in &cell.inputs {
                check_source(src)?;
            }
        }
        for out in &bitstream.outputs {
            check_source(out)?;
        }

        // Topologically order the combinational subgraph.
        let order = combinational_order(&bitstream.cells)?;

        // Cell→cell consumer lists (all Source::Cell edges, registered or
        // not) drive the incremental re-settle in `step`.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (id, cell) in bitstream.cells.iter().enumerate() {
            for src in &cell.inputs {
                if let Source::Cell(p) = *src {
                    consumers[p].push(id);
                }
            }
        }

        Ok(ConfiguredFabric {
            bitstream: bitstream.clone(),
            comb_order: order,
            consumers,
            state: vec![false; n],
            value: vec![false; n],
            last_inputs: Vec::new(),
            cache_valid: false,
            dense_reference: false,
            cancel: CancelToken::new(),
        })
    }
}

/// Topological order over non-registered dependencies; errors on
/// combinational cycles.
fn combinational_order(cells: &[CellConfig]) -> Result<Vec<usize>, MachineError> {
    let n = cells.len();
    // indegree counts only edges from *unregistered* producer cells.
    let mut indegree = vec![0usize; n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, cell) in cells.iter().enumerate() {
        for src in &cell.inputs {
            if let Source::Cell(p) = *src {
                if !cells[p].registered {
                    indegree[id] += 1;
                    consumers[p].push(id);
                }
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop() {
        order.push(id);
        for &c in &consumers[id] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    if order.len() != n {
        return Err(MachineError::config(
            "combinational cycle: a feedback loop must pass through a registered cell",
        ));
    }
    Ok(order)
}

/// A fabric with a loaded bitstream, ready to run.
#[derive(Debug, Clone)]
pub struct ConfiguredFabric {
    bitstream: Bitstream,
    comb_order: Vec<usize>,
    consumers: Vec<Vec<usize>>,
    state: Vec<bool>,
    /// Cached settled cell values for (`state`, `last_inputs`); only
    /// meaningful while `cache_valid`.
    value: Vec<bool>,
    last_inputs: Vec<bool>,
    cache_valid: bool,
    dense_reference: bool,
    cancel: CancelToken,
}

impl ConfiguredFabric {
    /// Current flip-flop state.
    pub fn state(&self) -> &[bool] {
        &self.state
    }

    /// Force the full settle-latch-settle clock edge (the reference
    /// path) instead of the incremental dirty-cone re-settle.  Both
    /// produce identical outputs and state trajectories.
    pub fn with_dense_reference(mut self, dense: bool) -> ConfiguredFabric {
        self.dense_reference = dense;
        self
    }

    /// Attach a cancellation token to [`ConfiguredFabric::run_until`]: a
    /// deadline stops the run after that exact number of clock edges; a
    /// raised flag stops it at the next edge poll.
    pub fn with_cancel(mut self, cancel: CancelToken) -> ConfiguredFabric {
        self.cancel = cancel;
        self
    }

    /// Reset all flip-flops to zero.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|b| *b = false);
        self.cache_valid = false;
    }

    /// Compute every cell's combinational value for the given primary
    /// inputs (registered cells contribute their *current* FF value to
    /// consumers).
    fn settle(&self, inputs: &[bool]) -> Result<Vec<bool>, MachineError> {
        let cells = &self.bitstream.cells;
        let mut value = vec![false; cells.len()];
        let resolve = |src: &Source, value: &[bool]| -> Result<bool, MachineError> {
            Ok(match *src {
                Source::Primary(k) => *inputs
                    .get(k)
                    .ok_or_else(|| MachineError::config(format!("missing primary input {k}")))?,
                Source::Cell(id) => {
                    if cells[id].registered {
                        self.state[id]
                    } else {
                        value[id]
                    }
                }
                Source::Zero => false,
                Source::One => true,
            })
        };
        for &id in &self.comb_order {
            let cell = &cells[id];
            let ins: Result<Vec<bool>, MachineError> =
                cell.inputs.iter().map(|s| resolve(s, &value)).collect();
            value[id] = cell.lut.eval(&ins?)?;
        }
        Ok(value)
    }

    /// Resolve one source against settled cell values (registered
    /// producers contribute their FF state).
    fn resolve_from(
        &self,
        src: &Source,
        inputs: &[bool],
        value: &[bool],
    ) -> Result<bool, MachineError> {
        Ok(match *src {
            Source::Primary(k) => *inputs
                .get(k)
                .ok_or_else(|| MachineError::config(format!("missing primary input {k}")))?,
            Source::Cell(id) => {
                if self.bitstream.cells[id].registered {
                    self.state[id]
                } else {
                    value[id]
                }
            }
            Source::Zero => false,
            Source::One => true,
        })
    }

    /// Read the fabric outputs from settled cell values.
    fn outputs_from(&self, inputs: &[bool], value: &[bool]) -> Result<Vec<bool>, MachineError> {
        self.bitstream
            .outputs
            .iter()
            .map(|src| self.resolve_from(src, inputs, value))
            .collect()
    }

    /// Evaluate the fabric combinationally and read the outputs (the
    /// *datapath* view: no clock edge, FFs unchanged).
    pub fn eval(&self, inputs: &[bool]) -> Result<Vec<bool>, MachineError> {
        let value = self.settle(inputs)?;
        self.outputs_from(inputs, &value)
    }

    /// One clock cycle: settle, latch every registered cell, and return
    /// the post-edge outputs (the *state machine* view).
    ///
    /// The default path keeps the settled values cached across edges and
    /// only re-evaluates the *dirty cone* downstream of flip-flops that
    /// actually changed at the latch — on a fabric where most state
    /// holds steady, an edge costs O(changed cone) instead of two full
    /// network settles.  [`ConfiguredFabric::with_dense_reference`]
    /// forces the full recompute for differential testing.
    pub fn step(&mut self, inputs: &[bool]) -> Result<Vec<bool>, MachineError> {
        if self.dense_reference {
            let value = self.settle(inputs)?;
            for (id, cell) in self.bitstream.cells.iter().enumerate() {
                if cell.registered {
                    self.state[id] = value[id];
                }
            }
            return self.eval(inputs);
        }
        // Pre-edge settle: reuse the cache when neither the inputs nor
        // the state changed since it was filled (the cache is maintained
        // post-latch below, so it already reflects the current state).
        if !self.cache_valid || self.last_inputs != inputs {
            match self.settle(inputs) {
                Ok(value) => {
                    self.value = value;
                    self.last_inputs = inputs.to_vec();
                    self.cache_valid = true;
                }
                Err(err) => {
                    self.cache_valid = false;
                    return Err(err);
                }
            }
        }
        // Latch, seeding the dirty set with consumers of FFs that flipped.
        let mut dirty = vec![false; self.bitstream.cells.len()];
        let mut any_flipped = false;
        for (id, cell) in self.bitstream.cells.iter().enumerate() {
            if cell.registered && self.state[id] != self.value[id] {
                self.state[id] = self.value[id];
                any_flipped = true;
                for &c in &self.consumers[id] {
                    dirty[c] = true;
                }
            }
        }
        // Post-edge re-settle over the dirty cone only, in topological
        // order.  A recomputed cell propagates dirtiness only if it is
        // unregistered (consumers of a registered cell read its FF, which
        // will not move again until the next edge).
        if any_flipped {
            for idx in 0..self.comb_order.len() {
                let id = self.comb_order[idx];
                if !dirty[id] {
                    continue;
                }
                let ins: Result<Vec<bool>, MachineError> = self.bitstream.cells[id]
                    .inputs
                    .iter()
                    .map(|s| self.resolve_from(s, inputs, &self.value))
                    .collect();
                let new = match ins.and_then(|ins| self.bitstream.cells[id].lut.eval(&ins)) {
                    Ok(v) => v,
                    Err(err) => {
                        self.cache_valid = false;
                        return Err(err);
                    }
                };
                if new != self.value[id] {
                    self.value[id] = new;
                    if !self.bitstream.cells[id].registered {
                        for &c in &self.consumers[id] {
                            dirty[c] = true;
                        }
                    }
                }
            }
        }
        let out = self.outputs_from(inputs, &self.value);
        if out.is_err() {
            self.cache_valid = false;
        }
        out
    }

    /// Clock the fabric until `done(outputs)` holds, with a cycle-budget
    /// watchdog: a state machine that never satisfies the predicate comes
    /// back as a typed [`MachineError::WatchdogTimeout`] with partial
    /// [`Stats`] instead of hanging the caller.
    pub fn run_until(
        &mut self,
        inputs: &[bool],
        limit: u64,
        done: impl FnMut(&[bool]) -> bool,
    ) -> Result<(Vec<bool>, Stats), MachineError> {
        self.run_until_traced(inputs, limit, done, &mut NullTracer)
    }

    /// [`ConfiguredFabric::run_until`] with observation hooks: one `Issue`
    /// event per clock edge (the fabric-wide evaluation), a `Watchdog`
    /// event if the budget trips.  With a [`NullTracer`] this
    /// monomorphises back to the plain clock loop.
    pub fn run_until_traced<T: Tracer>(
        &mut self,
        inputs: &[bool],
        limit: u64,
        mut done: impl FnMut(&[bool]) -> bool,
        tracer: &mut T,
    ) -> Result<(Vec<bool>, Stats), MachineError> {
        let budget = RunBudget::resolve(limit, &self.cancel);
        let mut stats = Stats::default();
        tracer.span_enter(0, Phase::Run);
        tracer.span_enter(0, Phase::Decode);
        tracer.span_exit(0);
        tracer.span_enter(0, Phase::Slice);
        loop {
            if self.cancel.flag_raised() {
                return Err(flag_trip(stats.cycles, stats, tracer));
            }
            if stats.cycles >= budget.limit() {
                return Err(budget.trip(stats.cycles, stats, tracer));
            }
            let out = self.step(inputs)?;
            stats.cycles += 1;
            stats.instructions += 1; // one fabric-wide evaluation per edge
            tracer.record(stats.cycles, EventKind::Issue);
            if done(&out) {
                tracer.span_exit(stats.cycles);
                tracer.span_exit(stats.cycles);
                return Ok((out, stats));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::lut::{tables, LutCell};

    fn lut2(table: [bool; 4]) -> LutCell {
        LutCell::new(2, table.to_vec()).unwrap()
    }

    #[test]
    fn combinational_network_evaluates() {
        // out = (a AND b) XOR c — three primaries, two cells.
        let fabric = LutFabric::new(8, 2, 3);
        let bs = Bitstream {
            cells: vec![
                CellConfig {
                    lut: lut2(tables::AND2),
                    inputs: vec![Source::Primary(0), Source::Primary(1)],
                    registered: false,
                },
                CellConfig {
                    lut: lut2(tables::XOR2),
                    inputs: vec![Source::Cell(0), Source::Primary(2)],
                    registered: false,
                },
            ],
            outputs: vec![Source::Cell(1)],
        };
        let configured = fabric.configure(&bs).unwrap();
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let out = configured.eval(&[a, b, c]).unwrap();
                    assert_eq!(out, vec![(a && b) ^ c]);
                }
            }
        }
    }

    #[test]
    fn registered_cell_makes_a_toggle_flip_flop() {
        // cell0 = XOR(cell0, enable), registered: a T flip-flop.
        let fabric = LutFabric::new(4, 2, 1);
        let bs = Bitstream {
            cells: vec![CellConfig {
                lut: lut2(tables::XOR2),
                inputs: vec![Source::Cell(0), Source::Primary(0)],
                registered: true,
            }],
            outputs: vec![Source::Cell(0)],
        };
        let mut f = fabric.configure(&bs).unwrap();
        assert_eq!(f.eval(&[true]).unwrap(), vec![false]);
        assert_eq!(f.step(&[true]).unwrap(), vec![true]);
        assert_eq!(f.step(&[true]).unwrap(), vec![false]);
        assert_eq!(f.step(&[false]).unwrap(), vec![false]); // hold
        f.reset();
        assert_eq!(f.state(), &[false]);
    }

    #[test]
    fn run_until_stops_when_the_predicate_holds() {
        // The T flip-flop toggles every cycle; wait for it to read true.
        let fabric = LutFabric::new(4, 2, 1);
        let bs = Bitstream {
            cells: vec![CellConfig {
                lut: lut2(tables::XOR2),
                inputs: vec![Source::Cell(0), Source::Primary(0)],
                registered: true,
            }],
            outputs: vec![Source::Cell(0)],
        };
        let mut f = fabric.configure(&bs).unwrap();
        let (out, stats) = f.run_until(&[true], 16, |o| o[0]).unwrap();
        assert_eq!(out, vec![true]);
        assert_eq!(stats.cycles, 1);
    }

    #[test]
    fn run_until_trips_the_watchdog_on_a_stuck_machine() {
        // With the toggle input held low the FF never changes, so the
        // predicate can never hold.
        let fabric = LutFabric::new(4, 2, 1);
        let bs = Bitstream {
            cells: vec![CellConfig {
                lut: lut2(tables::XOR2),
                inputs: vec![Source::Cell(0), Source::Primary(0)],
                registered: true,
            }],
            outputs: vec![Source::Cell(0)],
        };
        let mut f = fabric.configure(&bs).unwrap();
        match f.run_until(&[false], 32, |o| o[0]) {
            Err(MachineError::WatchdogTimeout { limit: 32, partial }) => {
                assert_eq!(partial.cycles, 32);
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
    }

    #[test]
    fn combinational_cycles_rejected() {
        let fabric = LutFabric::new(4, 2, 1);
        let bs = Bitstream {
            cells: vec![
                CellConfig {
                    lut: lut2(tables::OR2),
                    inputs: vec![Source::Cell(1), Source::Primary(0)],
                    registered: false,
                },
                CellConfig {
                    lut: lut2(tables::AND2),
                    inputs: vec![Source::Cell(0), Source::Primary(0)],
                    registered: false,
                },
            ],
            outputs: vec![Source::Cell(1)],
        };
        assert!(fabric.configure(&bs).is_err());
    }

    #[test]
    fn registered_feedback_is_legal() {
        // Same loop as above but through an FF: fine.
        let fabric = LutFabric::new(4, 2, 1);
        let bs = Bitstream {
            cells: vec![
                CellConfig {
                    lut: lut2(tables::OR2),
                    inputs: vec![Source::Cell(1), Source::Primary(0)],
                    registered: false,
                },
                CellConfig {
                    lut: lut2(tables::AND2),
                    inputs: vec![Source::Cell(0), Source::Primary(0)],
                    registered: true,
                },
            ],
            outputs: vec![Source::Cell(1)],
        };
        assert!(fabric.configure(&bs).is_ok());
    }

    #[test]
    fn capacity_and_dangling_sources_checked() {
        let fabric = LutFabric::new(1, 2, 1);
        let two_cells = Bitstream {
            cells: vec![
                CellConfig {
                    lut: lut2(tables::AND2),
                    inputs: vec![Source::Primary(0), Source::Zero],
                    registered: false,
                };
                2
            ],
            outputs: vec![],
        };
        assert!(fabric.configure(&two_cells).is_err());
        let dangling = Bitstream {
            cells: vec![CellConfig {
                lut: lut2(tables::AND2),
                inputs: vec![Source::Primary(5), Source::Zero],
                registered: false,
            }],
            outputs: vec![],
        };
        assert!(fabric.configure(&dangling).is_err());
    }

    #[test]
    fn config_bits_grow_with_used_cells() {
        let fabric = LutFabric::new(64, 2, 4);
        let one = Bitstream {
            cells: vec![CellConfig {
                lut: lut2(tables::AND2),
                inputs: vec![Source::Primary(0), Source::Primary(1)],
                registered: false,
            }],
            outputs: vec![Source::Cell(0)],
        };
        let mut two = one.clone();
        two.cells.push(CellConfig {
            lut: lut2(tables::OR2),
            inputs: vec![Source::Cell(0), Source::Primary(2)],
            registered: false,
        });
        assert!(two.config_bits(&fabric) > one.config_bits(&fabric));
    }
}
