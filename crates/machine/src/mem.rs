//! Data memories: flat banks and the banked store with DP–DM topologies.
//!
//! The DP–DM relation of the taxonomy becomes concrete here: a *direct*
//! (`n-n`) relation gives each data processor a private bank it alone can
//! address; a *crossbar* (`nxn`) relation gives every processor access to
//! every bank through a global address space.  The paper's flexibility
//! difference between e.g. IAP-I and IAP-III is exactly this difference.

use crate::error::MachineError;
use crate::isa::Word;

/// How data processors reach data memory (the DP–DM switch kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataTopology {
    /// Direct: lane `i` owns bank `i`; addresses are bank-local.
    PrivateBanks,
    /// Crossbar: one global address space over all banks; any lane can
    /// reach any word.
    SharedCrossbar,
}

/// One memory bank.
#[derive(Debug, Clone)]
pub struct MemoryBank {
    words: Vec<Word>,
    reads: u64,
    writes: u64,
}

impl MemoryBank {
    /// A zeroed bank of `size` words.
    pub fn new(size: usize) -> MemoryBank {
        MemoryBank {
            words: vec![0; size],
            reads: 0,
            writes: 0,
        }
    }

    /// Bank size in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Is the bank zero-sized?
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Read a word.
    #[inline]
    pub fn read(&mut self, addr: usize) -> Option<Word> {
        let v = self.words.get(addr).copied();
        if v.is_some() {
            self.reads += 1;
        }
        v
    }

    /// Write a word.
    #[inline]
    pub fn write(&mut self, addr: usize, value: Word) -> bool {
        if let Some(slot) = self.words.get_mut(addr) {
            *slot = value;
            self.writes += 1;
            true
        } else {
            false
        }
    }

    /// (reads, writes) counters.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Raw contents (for loading workloads and checking results).
    pub fn contents(&self) -> &[Word] {
        &self.words
    }

    /// Overwrite a prefix of the bank.
    pub fn load(&mut self, data: &[Word]) {
        let n = data.len().min(self.words.len());
        self.words[..n].copy_from_slice(&data[..n]);
    }

    /// Zero every word and the traffic counters, keeping the capacity —
    /// a pooled machine scrubs tenant data without reallocating.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.reads = 0;
        self.writes = 0;
    }
}

/// A banked data memory shared by the lanes of a machine.
#[derive(Debug, Clone)]
pub struct BankedMemory {
    banks: Vec<MemoryBank>,
    bank_size: usize,
    topology: DataTopology,
}

impl BankedMemory {
    /// `banks` banks of `bank_size` words each under the given topology.
    pub fn new(banks: usize, bank_size: usize, topology: DataTopology) -> BankedMemory {
        BankedMemory {
            banks: (0..banks).map(|_| MemoryBank::new(bank_size)).collect(),
            bank_size,
            topology,
        }
    }

    /// The DP–DM topology.
    pub fn topology(&self) -> DataTopology {
        self.topology
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Words per bank.
    pub fn bank_size(&self) -> usize {
        self.bank_size
    }

    /// Total capacity in words.
    pub fn capacity(&self) -> usize {
        self.banks.len() * self.bank_size
    }

    /// Resolve which bank + offset a `(lane, address)` pair touches, or an
    /// error if the topology forbids it.
    #[inline]
    fn resolve(&self, lane: usize, address: Word) -> Result<(usize, usize), MachineError> {
        if address < 0 {
            return Err(MachineError::MemoryOutOfBounds {
                processor: lane,
                address,
                size: self.capacity(),
            });
        }
        let addr = address as usize;
        match self.topology {
            DataTopology::PrivateBanks => {
                if lane >= self.banks.len() {
                    return Err(MachineError::BankAccessDenied {
                        processor: lane,
                        bank: lane,
                        reason: format!("machine has only {} banks", self.banks.len()),
                    });
                }
                if addr >= self.bank_size {
                    return Err(MachineError::MemoryOutOfBounds {
                        processor: lane,
                        address,
                        size: self.bank_size,
                    });
                }
                Ok((lane, addr))
            }
            DataTopology::SharedCrossbar => {
                let bank = addr / self.bank_size;
                if bank >= self.banks.len() {
                    return Err(MachineError::MemoryOutOfBounds {
                        processor: lane,
                        address,
                        size: self.capacity(),
                    });
                }
                Ok((bank, addr % self.bank_size))
            }
        }
    }

    /// Load a word as seen by `lane`.
    #[inline]
    pub fn read(&mut self, lane: usize, address: Word) -> Result<Word, MachineError> {
        let (bank, offset) = self.resolve(lane, address)?;
        self.banks[bank]
            .read(offset)
            .ok_or(MachineError::MemoryOutOfBounds {
                processor: lane,
                address,
                size: self.bank_size,
            })
    }

    /// Store a word as seen by `lane`.
    #[inline]
    pub fn write(&mut self, lane: usize, address: Word, value: Word) -> Result<(), MachineError> {
        let (bank, offset) = self.resolve(lane, address)?;
        if self.banks[bank].write(offset, value) {
            Ok(())
        } else {
            Err(MachineError::MemoryOutOfBounds {
                processor: lane,
                address,
                size: self.bank_size,
            })
        }
    }

    /// Zero every bank in place (words and traffic counters), keeping
    /// all capacity — the pooled-machine scrub between tenants.
    pub fn clear(&mut self) {
        self.banks.iter_mut().for_each(MemoryBank::clear);
    }

    /// Direct bank access for workload setup and result checking.
    pub fn bank_mut(&mut self, bank: usize) -> &mut MemoryBank {
        &mut self.banks[bank]
    }

    /// Immutable bank access.
    pub fn bank(&self, bank: usize) -> &MemoryBank {
        &self.banks[bank]
    }

    /// Total (reads, writes) across banks.
    pub fn traffic(&self) -> (u64, u64) {
        self.banks.iter().fold((0, 0), |(r, w), b| {
            let (br, bw) = b.traffic();
            (r + br, w + bw)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_read_write_round_trip() {
        let mut b = MemoryBank::new(8);
        assert!(b.write(3, 42));
        assert_eq!(b.read(3), Some(42));
        assert_eq!(b.read(8), None);
        assert!(!b.write(8, 1));
        assert_eq!(b.traffic(), (1, 1));
    }

    #[test]
    fn private_banks_isolate_lanes() {
        let mut m = BankedMemory::new(4, 16, DataTopology::PrivateBanks);
        m.write(0, 5, 100).unwrap();
        m.write(1, 5, 200).unwrap();
        assert_eq!(m.read(0, 5).unwrap(), 100);
        assert_eq!(m.read(1, 5).unwrap(), 200);
        // Lane 0 cannot see beyond its bank.
        assert!(matches!(
            m.read(0, 20),
            Err(MachineError::MemoryOutOfBounds { .. })
        ));
    }

    #[test]
    fn shared_crossbar_exposes_global_address_space() {
        let mut m = BankedMemory::new(4, 16, DataTopology::SharedCrossbar);
        // Lane 3 writes into bank 0; lane 0 reads it back.
        m.write(3, 5, 7).unwrap();
        assert_eq!(m.read(0, 5).unwrap(), 7);
        // Global address 17 lands in bank 1, offset 1.
        m.write(0, 17, 9).unwrap();
        assert_eq!(m.bank(1).contents()[1], 9);
        assert!(m.read(0, 64).is_err());
    }

    #[test]
    fn negative_addresses_rejected() {
        let mut m = BankedMemory::new(2, 8, DataTopology::SharedCrossbar);
        assert!(m.read(0, -1).is_err());
        assert!(m.write(0, -5, 1).is_err());
    }

    #[test]
    fn out_of_range_lane_denied_on_private_topology() {
        let mut m = BankedMemory::new(2, 8, DataTopology::PrivateBanks);
        assert!(matches!(
            m.read(5, 0),
            Err(MachineError::BankAccessDenied { processor: 5, .. })
        ));
    }

    #[test]
    fn traffic_aggregates_across_banks() {
        let mut m = BankedMemory::new(2, 8, DataTopology::PrivateBanks);
        m.write(0, 0, 1).unwrap();
        m.write(1, 0, 2).unwrap();
        m.read(0, 0).unwrap();
        assert_eq!(m.traffic(), (1, 2));
    }

    #[test]
    fn load_helper_fills_prefix() {
        let mut b = MemoryBank::new(4);
        b.load(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(b.contents(), &[1, 2, 3, 4]);
    }
}
