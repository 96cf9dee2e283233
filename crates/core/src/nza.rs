use smash_matrix::Scalar;

/// Non-Zero Values Array: the block-granular value store of the SMASH
/// encoding (paper §3.2, Fig. 4).
///
/// Every set bit of Bitmap-0 owns one block of `block_size` consecutive
/// values. Blocks that cover a region with fewer than `block_size` non-zeros
/// contain explicit zeros — the storage/compute trade-off controlled by the
/// Bitmap-0 compression ratio (§4.1.1).
///
/// # Example
///
/// ```
/// use smash_core::Nza;
///
/// let nza = Nza::from_values(4, vec![1.0, 0.0, 0.0, 2.0]);
/// assert_eq!(nza.num_blocks(), 1);
/// assert_eq!(nza.block(0), &[1.0, 0.0, 0.0, 2.0]);
/// assert_eq!(nza.zero_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Nza<T> {
    block_size: usize,
    values: Vec<T>,
    /// Non-zero count of `values`, kept as blocks are added. The array is
    /// append-only (no mutable access to stored values), so it cannot go
    /// stale.
    nnz: usize,
}

/// Number of non-zero values in `values`.
fn count_nonzeros<T: Scalar>(values: &[T]) -> usize {
    values.iter().filter(|v| !v.is_zero()).count()
}

impl<T: Scalar> Nza<T> {
    /// Creates an empty NZA with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        Nza {
            block_size,
            values: Vec::new(),
            nnz: 0,
        }
    }

    /// Wraps an existing value vector.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0` or `values.len()` is not a multiple of
    /// `block_size`.
    pub fn from_values(block_size: usize, values: Vec<T>) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        assert_eq!(
            values.len() % block_size,
            0,
            "value count {} is not a whole number of {}-element blocks",
            values.len(),
            block_size
        );
        let nnz = count_nonzeros(&values);
        Nza {
            block_size,
            values,
            nnz,
        }
    }

    /// Appends one block.
    ///
    /// # Panics
    ///
    /// Panics if `block.len() != block_size`.
    pub fn push_block(&mut self, block: &[T]) {
        assert_eq!(block.len(), self.block_size, "block length mismatch");
        self.nnz += count_nonzeros(block);
        self.values.extend_from_slice(block);
    }

    /// Elements per block (the Bitmap-0 compression ratio).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of stored blocks.
    pub fn num_blocks(&self) -> usize {
        self.values.len() / self.block_size
    }

    /// Total stored values (including explicit zeros).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Block `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_blocks()`.
    pub fn block(&self, i: usize) -> &[T] {
        assert!(i < self.num_blocks(), "block {i} out of range");
        &self.values[i * self.block_size..(i + 1) * self.block_size]
    }

    /// All stored values, block-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of non-zero values actually stored — O(1), counted as the
    /// blocks were added.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of stored values that are explicit zeros (wasted storage and
    /// wasted multiplies; 0.0 at 100 % locality of sparsity).
    pub fn zero_fraction(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            1.0 - self.nnz() as f64 / self.values.len() as f64
        }
    }

    /// Storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_blocks() {
        let mut nza = Nza::<f64>::new(2);
        nza.push_block(&[1.0, 2.0]);
        nza.push_block(&[0.0, 3.0]);
        assert_eq!(nza.num_blocks(), 2);
        assert_eq!(nza.block(1), &[0.0, 3.0]);
        assert_eq!(nza.len(), 4);
        assert_eq!(nza.nnz(), 3);
        assert_eq!(nza.zero_fraction(), 0.25);
    }

    #[test]
    fn storage_counts_padding_zeros() {
        let nza = Nza::from_values(4, vec![1.0f64, 0.0, 0.0, 0.0]);
        assert_eq!(nza.storage_bytes(), 32);
        assert_eq!(nza.zero_fraction(), 0.75);
    }

    #[test]
    fn empty_nza() {
        let nza = Nza::<f64>::new(8);
        assert!(nza.is_empty());
        assert_eq!(nza.zero_fraction(), 0.0);
        assert_eq!(nza.num_blocks(), 0);
    }

    #[test]
    #[should_panic(expected = "block length mismatch")]
    fn wrong_block_length_panics() {
        Nza::<f64>::new(4).push_block(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_values_panic() {
        Nza::from_values(4, vec![1.0f64; 6]);
    }
}
