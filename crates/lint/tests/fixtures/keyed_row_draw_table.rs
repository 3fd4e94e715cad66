// Fixture: ad-hoc keyed (counter-based) draws inside a batched round
// body. The `UrnColumnsMut` band below runs the batched choose pass
// under the worker pool: its inline `.coin` draws in a pre-fill pass
// (line 15) and in `choose` (line 20), and raw `.word` access in `peek`
// (line 24), fork the draw-site logic away from the scalar oracle and
// must be flagged, while the free helper outside any table impl
// (line 29) must not.
pub struct UrnColumnsMut<'a> {
    pub key: &'a [DrawKey],
}

impl<'a> UrnColumnsMut<'a> {
    pub fn prefill_draws(&self, round: u64, draws: &mut [bool], p: f64) {
        for (index, slot) in draws.iter_mut().enumerate() {
            *slot = self.key[index].coin(round, p);
        }
    }

    pub fn choose(&self, index: usize, round: u64, p: f64) -> bool {
        self.key[index].coin(round, p)
    }

    pub fn peek(&self, index: usize, round: u64) -> u64 {
        self.key[index].word(round)
    }
}

pub fn helper(key: DrawKey, round: u64, p: f64) -> bool {
    key.coin(round, p)
}
