//! Fixture label table: a miniature `simfaas/src/labels.rs`.

labels! {
    fixed {
        OpEnter => "op.enter",
        OpExit => "op.exit",
    }
    work_dependent {
        OpPerItem => "op.per_item",
    }
}
