//! A block-structured distributed-filesystem analogue (HDFS, Section 2.1.3).
//!
//! Files are append-only sequences of fixed-size blocks. Each block is
//! assigned to `replication` simulated datanodes round-robin — the
//! placement is bookkeeping (everything lives in one process) but it gives
//! the job runner the same structure Hadoop exploits: one map task per
//! block, scheduled "near" its data.

use crate::error::BatchError;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the filesystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Block size in bytes. HDFS defaults to 64 MiB; tests use small blocks
    /// so multi-block behaviour is exercised.
    pub block_size: usize,
    /// Replication factor.
    pub replication: usize,
    /// Number of simulated datanodes.
    pub datanodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { block_size: 64 * 1024, replication: 3, datanodes: 4 }
    }
}

/// One stored block.
#[derive(Debug, Clone)]
struct Block {
    data: Bytes,
    /// Datanode ids holding a replica.
    replicas: Vec<usize>,
}

/// Metadata returned by [`Dfs::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStatus {
    /// The file's path.
    pub path: String,
    /// Total length in bytes.
    pub len: u64,
    /// Number of blocks.
    pub blocks: usize,
    /// Replication factor.
    pub replication: usize,
}

#[derive(Debug, Default)]
struct Namespace {
    files: BTreeMap<String, Vec<Block>>,
    next_node: usize,
}

/// The filesystem. Cheap to clone; clones share state (one namenode).
#[derive(Debug, Clone)]
pub struct Dfs {
    config: DfsConfig,
    ns: Arc<RwLock<Namespace>>,
}

impl Dfs {
    /// Creates a filesystem.
    pub fn new(config: DfsConfig) -> Result<Self, BatchError> {
        if config.block_size == 0 {
            return Err(BatchError::InvalidDfsConfig { reason: "block_size must be > 0".into() });
        }
        if config.datanodes == 0 {
            return Err(BatchError::InvalidDfsConfig { reason: "datanodes must be > 0".into() });
        }
        if config.replication == 0 || config.replication > config.datanodes {
            return Err(BatchError::InvalidDfsConfig {
                reason: format!(
                    "replication must be in 1..={} (datanodes), got {}",
                    config.datanodes, config.replication
                ),
            });
        }
        Ok(Dfs { config, ns: Arc::new(RwLock::new(Namespace::default())) })
    }

    /// Creates a filesystem with default configuration.
    pub fn with_defaults() -> Self {
        Dfs::new(DfsConfig::default()).expect("default config is valid")
    }

    /// The configuration.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Creates a file with the given contents; fails if it exists.
    pub fn create(&self, path: &str, data: &[u8]) -> Result<(), BatchError> {
        let mut ns = self.ns.write();
        if ns.files.contains_key(path) {
            return Err(BatchError::FileExists(path.to_string()));
        }
        let blocks = self.blockify(&mut ns, data);
        ns.files.insert(path.to_string(), blocks);
        Ok(())
    }

    /// Appends bytes to a file, creating it if missing. Appends always
    /// start a new block when the last block is full.
    pub fn append(&self, path: &str, data: &[u8]) -> Result<(), BatchError> {
        let mut ns = self.ns.write();
        // Fill the tail block first, then blockify the remainder.
        let mut remaining = data;
        if let Some(blocks) = ns.files.get_mut(path) {
            if let Some(last) = blocks.last_mut() {
                let room = self.config.block_size - last.data.len();
                if room > 0 && !remaining.is_empty() {
                    let take = room.min(remaining.len());
                    let mut merged = Vec::with_capacity(last.data.len() + take);
                    merged.extend_from_slice(&last.data);
                    merged.extend_from_slice(&remaining[..take]);
                    last.data = Bytes::from(merged);
                    remaining = &remaining[take..];
                }
            }
        } else {
            ns.files.insert(path.to_string(), Vec::new());
        }
        let new_blocks = self.blockify(&mut ns, remaining);
        ns.files
            .get_mut(path)
            .expect("file ensured above")
            .extend(new_blocks);
        Ok(())
    }

    fn blockify(&self, ns: &mut Namespace, data: &[u8]) -> Vec<Block> {
        let mut blocks = Vec::new();
        for chunk in data.chunks(self.config.block_size) {
            let mut replicas = Vec::with_capacity(self.config.replication);
            for r in 0..self.config.replication {
                replicas.push((ns.next_node + r) % self.config.datanodes);
            }
            ns.next_node = (ns.next_node + 1) % self.config.datanodes;
            blocks.push(Block { data: Bytes::copy_from_slice(chunk), replicas });
        }
        blocks
    }

    /// Whole-file read.
    pub fn read(&self, path: &str) -> Result<Vec<u8>, BatchError> {
        let ns = self.ns.read();
        let blocks =
            ns.files.get(path).ok_or_else(|| BatchError::FileNotFound(path.to_string()))?;
        let mut out = Vec::with_capacity(blocks.iter().map(|b| b.data.len()).sum());
        for b in blocks {
            out.extend_from_slice(&b.data);
        }
        Ok(out)
    }

    /// Whole-file read as UTF-8 text.
    pub fn read_to_string(&self, path: &str) -> Result<String, BatchError> {
        String::from_utf8(self.read(path)?)
            .map_err(|_| BatchError::NotUtf8 { path: path.to_string() })
    }

    /// A file's text (as [`Self::read_to_string`] returns it) split into
    /// **line-aligned chunks**, one per block: a line crossing a block
    /// boundary belongs to the chunk where it started, mirroring how
    /// Hadoop's `TextInputFormat` assigns records to splits. The chunks
    /// borrow the text; nothing is copied.
    pub fn line_splits<'t>(&self, text: &'t str) -> Vec<&'t str> {
        let bs = self.config.block_size;
        let bytes = text.as_bytes();
        let mut splits = Vec::with_capacity(bytes.len().div_ceil(bs));
        let mut start = 0usize;
        while start < bytes.len() {
            let tentative_end = (start + bs).min(bytes.len());
            // Extend to the end of the line that straddles the boundary.
            let end = match bytes[tentative_end..].iter().position(|&b| b == b'\n') {
                Some(off) => tentative_end + off + 1,
                None => bytes.len(),
            };
            splits.push(&text[start..end]);
            start = end;
        }
        splits
    }

    /// Deletes a file.
    pub fn delete(&self, path: &str) -> Result<(), BatchError> {
        self.ns
            .write()
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| BatchError::FileNotFound(path.to_string()))
    }

    /// Whether the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.ns.read().files.contains_key(path)
    }

    /// All paths under a prefix (HDFS-style directory listing), sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.ns
            .read()
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// File metadata.
    pub fn status(&self, path: &str) -> Result<FileStatus, BatchError> {
        let ns = self.ns.read();
        let blocks =
            ns.files.get(path).ok_or_else(|| BatchError::FileNotFound(path.to_string()))?;
        Ok(FileStatus {
            path: path.to_string(),
            len: blocks.iter().map(|b| b.data.len() as u64).sum(),
            blocks: blocks.len(),
            replication: self.config.replication,
        })
    }

    /// Replica placements of each block (datanode ids), for tests and the
    /// scheduler's locality bookkeeping.
    pub fn block_locations(&self, path: &str) -> Result<Vec<Vec<usize>>, BatchError> {
        let ns = self.ns.read();
        let blocks =
            ns.files.get(path).ok_or_else(|| BatchError::FileNotFound(path.to_string()))?;
        Ok(blocks.iter().map(|b| b.replicas.clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dfs() -> Dfs {
        Dfs::new(DfsConfig { block_size: 16, replication: 2, datanodes: 3 }).unwrap()
    }

    #[test]
    fn create_read_round_trip() {
        let dfs = small_dfs();
        let data = b"hello distributed filesystem".as_slice();
        dfs.create("/a", data).unwrap();
        assert_eq!(dfs.read("/a").unwrap(), data);
        let st = dfs.status("/a").unwrap();
        assert_eq!(st.len, data.len() as u64);
        assert_eq!(st.blocks, 2); // 28 bytes at block_size 16
    }

    #[test]
    fn create_existing_fails() {
        let dfs = small_dfs();
        dfs.create("/a", b"x").unwrap();
        assert!(matches!(dfs.create("/a", b"y"), Err(BatchError::FileExists(_))));
    }

    #[test]
    fn append_fills_tail_block_then_splits() {
        let dfs = small_dfs();
        dfs.create("/a", b"12345678").unwrap(); // half a block
        dfs.append("/a", b"abcdefghij").unwrap(); // fills to 16, spills 2
        assert_eq!(dfs.read("/a").unwrap(), b"12345678abcdefghij");
        assert_eq!(dfs.status("/a").unwrap().blocks, 2);
        // Append to a missing file creates it.
        dfs.append("/b", b"new").unwrap();
        assert_eq!(dfs.read("/b").unwrap(), b"new");
    }

    #[test]
    fn replication_and_placement() {
        let dfs = small_dfs();
        dfs.create("/a", &[0u8; 50]).unwrap();
        let locs = dfs.block_locations("/a").unwrap();
        assert_eq!(locs.len(), 4); // ceil(50/16)
        for replicas in &locs {
            assert_eq!(replicas.len(), 2);
            assert!(replicas.iter().all(|&n| n < 3));
            assert_ne!(replicas[0], replicas[1], "replicas on distinct nodes");
        }
    }

    #[test]
    fn line_splits_are_line_aligned_and_lossless() {
        let dfs = small_dfs();
        let text = "line one\nline two is longer\nthree\nand the fourth line\n";
        dfs.create("/t", text.as_bytes()).unwrap();
        let file = dfs.read_to_string("/t").unwrap();
        let splits = dfs.line_splits(&file);
        assert!(splits.len() > 1, "text spans multiple blocks");
        // Each block's straddling line stays with the block it starts in.
        assert_eq!(splits, ["line one\nline two is longer\n", "three\nand the fourth line\n"]);
        for s in &splits {
            assert!(s.ends_with('\n') || s == splits.last().unwrap());
            // No split starts mid-line.
        }
        assert_eq!(splits.concat(), text);
    }

    #[test]
    fn line_split_of_file_without_trailing_newline() {
        let dfs = small_dfs();
        dfs.create("/t", b"abcdefghijklmnopqrs no newline at all").unwrap();
        let file = dfs.read_to_string("/t").unwrap();
        let splits = dfs.line_splits(&file);
        assert_eq!(splits.len(), 1, "one giant line belongs to one split");
    }

    #[test]
    fn list_and_delete() {
        let dfs = small_dfs();
        dfs.create("/data/day1.csv", b"x").unwrap();
        dfs.create("/data/day2.csv", b"y").unwrap();
        dfs.create("/out/part0", b"z").unwrap();
        assert_eq!(dfs.list("/data/"), vec!["/data/day1.csv", "/data/day2.csv"]);
        dfs.delete("/data/day1.csv").unwrap();
        assert!(!dfs.exists("/data/day1.csv"));
        assert!(matches!(dfs.delete("/nope"), Err(BatchError::FileNotFound(_))));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Dfs::new(DfsConfig { block_size: 0, replication: 1, datanodes: 1 }).is_err());
        assert!(Dfs::new(DfsConfig { block_size: 1, replication: 0, datanodes: 1 }).is_err());
        assert!(Dfs::new(DfsConfig { block_size: 1, replication: 3, datanodes: 2 }).is_err());
    }

    #[test]
    fn non_utf8_read_to_string_fails() {
        let dfs = small_dfs();
        dfs.create("/bin", &[0xff, 0xfe, 0x00]).unwrap();
        assert!(matches!(dfs.read_to_string("/bin"), Err(BatchError::NotUtf8 { .. })));
    }

    #[test]
    fn clones_share_the_namespace() {
        let dfs = small_dfs();
        let clone = dfs.clone();
        clone.create("/shared", b"data").unwrap();
        assert!(dfs.exists("/shared"));
    }
}
