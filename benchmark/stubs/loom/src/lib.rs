//! Empty placeholder; see Cargo.toml.
