//! # textprep — NLP preprocessing for ADR report narratives
//!
//! The paper's §4.2: *"we apply common techniques to tokenize the content in
//! the report description field, remove stop words, and then stem tokenized
//! words to their root forms before computing their distances."*
//!
//! This crate provides exactly that pipeline, from scratch:
//!
//! * [`for_each_token`] — the one lowercasing alphanumeric token scanner
//!   ([`tokenize`] collects its tokens as strings);
//! * [`stopwords`] — a standard English stopword list with medical-report
//!   additions;
//! * [`porter`] — the full Porter (1980) suffix-stripping stemmer;
//! * [`Pipeline`] — tokenize → stop-word filter → stem, the unit the
//!   pairwise-distance module calls per free-text field:
//!   [`Pipeline::intern`] in production, [`Pipeline::process`] as the
//!   string-returning reference;
//! * [`TokenInterner`] — string → `u32` interning so token sets compare as
//!   sorted integer slices, never re-hashing strings on the pairwise hot
//!   path, plus the raw-token memo that lets `Pipeline::intern` filter, stem
//!   and intern once per distinct word; [`ChunkInterner`] is the same table
//!   for one stretch of a batch interned on another thread and absorbed.

mod hash;
pub mod intern;
pub mod pipeline;
pub mod porter;
pub mod stopwords;
pub mod tokenizer;

pub use intern::{ChunkInterner, InternLog, TokenInterner};
pub use pipeline::Pipeline;
pub use porter::stem;
pub use stopwords::is_stopword;
pub use tokenizer::{for_each_token, tokenize};
