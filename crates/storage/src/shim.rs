//! A compile shim for the frozen benchmark harness, which still declares
//! shard keys. There are no shards: a database is served whole.

/// Accepts shard-key declarations and ignores them. The frozen benchmark
/// harness calls it; the benchmark PR deletes it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSpec;

impl ShardSpec {
    #[doc(hidden)]
    pub fn new() -> Self {
        ShardSpec
    }

    #[doc(hidden)]
    pub fn with(self, _table: impl Into<String>, _key_cols: Vec<usize>) -> Self {
        self
    }
}
