//! Synthetic datasets standing in for CIFAR10/ImageNet.
//!
//! The CCQ paper evaluates on CIFAR10 and ImageNet, which are unavailable
//! here (and far beyond a CPU training substrate). This crate generates
//! **SynthCIFAR**: a procedural multi-class image-classification task —
//! rendered shapes and textures with positional/scale/color jitter and
//! noise — that has a genuine generalization gap, so that CCQ's
//! accuracy-driven decisions face the same dynamics (layers differ in
//! sensitivity, fine-tuning recovers accuracy) at laptop scale. See
//! DESIGN.md §2 for the substitution argument.
//!
//! # Example
//!
//! ```
//! use ccq_data::{synth_cifar, SynthCifarConfig};
//!
//! let ds = synth_cifar(&SynthCifarConfig { classes: 4, samples_per_class: 8, ..Default::default() });
//! assert_eq!(ds.len(), 32);
//! let batches = ds.batches(8);
//! assert_eq!(batches.len(), 4);
//! ```

mod augment;
mod blobs;
mod image;
mod shapes;

pub use augment::Augment;
pub use blobs::{gaussian_blobs, BlobsConfig, VectorDataset};
pub use image::ImageDataset;
pub use shapes::{synth_cifar, ShapeKind, SynthCifarConfig};
