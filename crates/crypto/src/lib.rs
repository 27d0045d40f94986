//! Hash primitives for the LVQ reproduction.
//!
//! Everything is implemented from scratch (no external crypto crates are
//! available offline) against published test vectors:
//!
//! * [`Sha256`] — FIPS 180-4 SHA-256, plus Bitcoin's double-SHA-256. On
//!   x86-64 CPUs with the SHA extensions the compression function runs on
//!   a SHA-NI kernel chosen at run time; elsewhere on the portable one.
//! * [`Hash256`] — a 32-byte digest newtype used for every commitment in
//!   the workspace (Merkle roots, BMT/SMT roots, header hashes).
//! * [`murmur3_32`] — MurmurHash3 x86_32, the hash family Bitcoin's BIP 37
//!   Bloom filters use; `lvq-bloom` derives its k bit positions from it.
//! * [`base58`] — Base58 / Base58Check, used for human-readable addresses.
//!
//! # Examples
//!
//! ```
//! use lvq_crypto::{sha256, Hash256};
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     Hash256::from(digest).to_string(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

// `deny` rather than `forbid`: the SHA-NI kernel in `sha256` is the one
// module allowed unsafe code (CPU intrinsics have no safe equivalent for
// its block loads and its call). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod base58;
mod hash256;
pub mod hex;
mod murmur3;
mod sha256;

pub use hash256::{Hash256, ParseHashError};
pub use murmur3::murmur3_32;
pub use sha256::{sha256, sha256d, Sha256};
