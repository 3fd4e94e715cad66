// Fixture: raw per-row RNG access inside a batched round body. The
// `DenseRowsMut` band below runs the batched choose pass under the
// worker pool: its inline `.random_bool` draws in a pre-fill pass
// (line 14) and in `choose` (line 19) bypass the shared scalar state
// machine and must be flagged, while the free helper outside any table
// impl (line 24) must not.
pub struct DenseRowsMut<'a> {
    pub rng: &'a mut [PerRowRng],
}

impl<'a> DenseRowsMut<'a> {
    pub fn prefill_draws(&mut self, draws: &mut [bool], p: f64) {
        for (index, slot) in draws.iter_mut().enumerate() {
            *slot = self.rng[index].random_bool(p);
        }
    }

    pub fn choose(&mut self, index: usize, p: f64) -> bool {
        self.rng[index].random_bool(p)
    }
}

pub fn helper(rng: &mut PerRowRng, p: f64) -> bool {
    rng.random_bool(p)
}
