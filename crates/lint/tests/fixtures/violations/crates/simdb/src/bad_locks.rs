//! Fixture: a lock-order violation.

impl Database {
    // lock-order/nested: guards retained across an unsorted Vec loop
    pub fn transact(&self, parts: &Vec<usize>) -> Result<()> {
        let mut guards = Vec::new();
        for &p in parts {
            guards.push(self.table.lock_partition(p));
        }
        apply(&mut guards)
    }
}
