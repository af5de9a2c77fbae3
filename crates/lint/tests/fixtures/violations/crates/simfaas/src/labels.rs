//! Fixture label table for the violations tree.

labels! {
    fixed {
        OpEnter => "op.enter",
        OpExit => "op.exit",
    }
    work_dependent {}
}
