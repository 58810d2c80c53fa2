//! Set membership over a dense index range, cleared in O(1) per pass.

/// Per index: the number of the last pass that marked it. An index is in the
/// current pass's set when its stamp is the pass number, so starting a pass
/// is one increment instead of a clear of every index.
#[derive(Default)]
pub(crate) struct Stamps {
    stamp: Vec<u32>,
    /// The current pass's number; never 0 once a pass has begun, so a zeroed
    /// `stamp` marks nothing.
    pass: u32,
}

impl Stamps {
    /// Begin a pass over indices `0..len` with none marked.
    pub(crate) fn begin(&mut self, len: usize) {
        self.stamp.resize(len, 0);
        self.pass = self.pass.wrapping_add(1);
        if self.pass == 0 {
            // The pass counter wrapped: forget every earlier stamp.
            self.stamp.fill(0);
            self.pass = 1;
        }
    }

    /// Put `i` in the current pass's set.
    #[inline]
    pub(crate) fn mark(&mut self, i: usize) {
        self.stamp[i] = self.pass;
    }

    /// Whether `i` is in the current pass's set.
    #[inline]
    pub(crate) fn marked(&self, i: usize) -> bool {
        self.stamp[i] == self.pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_forgets_the_last_one_and_survives_the_counter_wrapping() {
        let mut s = Stamps::default();
        s.begin(4);
        s.mark(1);
        assert!(s.marked(1) && !s.marked(0));
        s.begin(4);
        assert!(!s.marked(1));
        // Index 2 was stamped long ago with the number the wrap comes back to.
        s.stamp[2] = 1;
        s.pass = u32::MAX;
        s.begin(4);
        assert_eq!(s.pass, 1);
        assert!((0..4).all(|i| !s.marked(i)));
    }
}
