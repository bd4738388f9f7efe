//! # dvi-bpred
//!
//! Branch-prediction substrate for the DVI reproduction, modelled on the
//! machine of Figure 2 of *Exploiting Dead Value Information*: a
//! combinational gshare/bimodal predictor with 16 bits of global history and
//! a return-address stack. Figure 2's machine also has a branch target
//! buffer; the model predicts taken-branch targets perfectly instead, so it
//! keeps none.
//!
//! # Example
//!
//! ```
//! use dvi_bpred::{CombiningPredictor, PredictorConfig};
//!
//! let mut bp = CombiningPredictor::new(PredictorConfig::micro97());
//! // Train on an always-taken branch.
//! for _ in 0..16 {
//!     let _ = bp.predict(0x400);
//!     bp.update(0x400, true);
//! }
//! assert!(bp.predict(0x400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod combining;
mod counter;
mod gshare;
mod ras;

pub use bimodal::Bimodal;
pub use combining::{CombiningPredictor, PredictorConfig, PredictorStats};
pub use counter::TwoBitCounter;
pub use gshare::Gshare;
pub use ras::ReturnAddressStack;
