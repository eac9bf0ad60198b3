//! Disk subsystem models.
//!
//! "We used multiple disks with software RAID to ensure that disk was not
//! the bottleneck" (§7). The model is deliberately simple: streaming at a
//! fixed rate, with RAID-0 striping multiplying it.

/// A single spindle, year-2000 class by default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential read bandwidth, bytes/sec.
    pub read_rate: f64,
    /// Sequential write bandwidth, bytes/sec.
    pub write_rate: f64,
}

impl DiskModel {
    /// A ~2000-era SCSI disk: ~25 MB/s streaming.
    pub fn year2000_scsi() -> Self {
        DiskModel {
            read_rate: 25e6,
            write_rate: 20e6,
        }
    }
}

/// RAID level: the prototype used striping (RAID-0) for bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidLevel {
    /// Striping: aggregate bandwidth, no redundancy.
    Raid0,
    /// Mirroring: read bandwidth scales, writes go everywhere.
    Raid1,
}

/// A software RAID array of identical disks.
#[derive(Debug, Clone, Copy)]
pub struct RaidArray {
    pub disk: DiskModel,
    pub disks: usize,
    pub level: RaidLevel,
}

impl RaidArray {
    pub fn new(disk: DiskModel, disks: usize, level: RaidLevel) -> Self {
        assert!(disks >= 1);
        RaidArray { disk, disks, level }
    }

    /// Aggregate sequential read bandwidth, bytes/sec.
    pub fn read_rate(&self) -> f64 {
        self.disk.read_rate * self.disks as f64
    }

    /// Aggregate sequential write bandwidth, bytes/sec.
    pub fn write_rate(&self) -> f64 {
        match self.level {
            RaidLevel::Raid0 => self.disk.write_rate * self.disks as f64,
            RaidLevel::Raid1 => self.disk.write_rate, // every mirror writes everything
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid0_scales_both_ways() {
        let arr = RaidArray::new(DiskModel::year2000_scsi(), 4, RaidLevel::Raid0);
        assert!((arr.read_rate() - 100e6).abs() < 1.0);
        assert!((arr.write_rate() - 80e6).abs() < 1.0);
    }

    #[test]
    fn raid1_write_does_not_scale() {
        let arr = RaidArray::new(DiskModel::year2000_scsi(), 4, RaidLevel::Raid1);
        assert!((arr.read_rate() - 100e6).abs() < 1.0);
        assert!((arr.write_rate() - 20e6).abs() < 1.0);
    }

    #[test]
    fn raid_keeps_disk_faster_than_gige() {
        // The paper's point: enough spindles to beat the NIC (125 MB/s).
        let arr = RaidArray::new(DiskModel::year2000_scsi(), 6, RaidLevel::Raid0);
        assert!(arr.read_rate() > 125e6);
    }
}
