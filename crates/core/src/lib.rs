//! # hv-core — security-relevant HTML specification violations
//!
//! The primary contribution of *"HTML Violations and Where to Find Them"*
//! (IMC '22), as a library:
//!
//! * [`taxonomy`] — the Table-1 violation list: 14 families / 20 concrete
//!   checks, grouped into Data Exfiltration, Data Manipulation, HTML
//!   Formatting and Filter Bypass, split into Definition Violations and
//!   Parsing Errors, and classified by §4.4 auto-fixability.
//! * [`checkers`] — one logically independent rule per check, written as
//!   an event visitor over the [`spec_html`] parser's error states,
//!   recovery events, start-tag stream and DOM; each rule declares an
//!   [`Interest`] mask naming the sources it consumes.
//! * [`battery`] — the reusable [`Battery`] and its fused dispatch
//!   engine: construct the rule set once (per worker), then analyze each
//!   page in **one pass** over errors → tree events → start tags → DOM →
//!   finish, dispatching every item only to the interested rules;
//!   optionally timing every rule into mergeable [`CheckStats`].
//! * [`autofix`] — the §4.4 automatic repair (serialize-reparse for FB,
//!   duplicate removal for DM3, head relocation for DM1/DM2).
//! * [`checkers::mitigation_flags`] — the §4.5 deployed-mitigation
//!   conflict analysis (`<script` in attributes, newline+`<` URLs).
//!
//! ## Quickstart
//!
//! For a single page, a full [`Battery`] is the shortest path:
//!
//! ```
//! use hv_core::{Battery, ViolationKind};
//!
//! let report = Battery::full().run_str(r#"<img src="x.png"onerror="alert(1)">"#);
//! assert!(report.has(ViolationKind::FB2));
//!
//! let fixed = hv_core::autofix::auto_fix(r#"<img src="x.png"onerror="alert(1)">"#);
//! assert!(!fixed.after.contains(&ViolationKind::FB2));
//! ```
//!
//! When scanning many pages, build one [`Battery`] and reuse it — the rule
//! set is boxed once and the findings buffer is recycled between pages:
//!
//! ```
//! use hv_core::{Battery, CheckContext, ViolationKind};
//!
//! let mut battery = Battery::full();
//! for page in ["<p>fine</p>", "<img src=a src=b>"] {
//!     let cx = CheckContext::new(page);
//!     let report = battery.run_ref(&cx); // borrow, no per-page allocation
//!     if report.has(ViolationKind::DM3) {
//!         assert!(page.contains("src=a"));
//!     }
//! }
//!
//! // Only a subset of rules:
//! let mut fb = Battery::only(&[ViolationKind::FB1, ViolationKind::FB2]);
//! assert_eq!(fb.kinds().len(), 2);
//! ```

pub mod autofix;
pub mod battery;
pub mod checkers;
pub mod context;
pub mod error;
pub mod report;
pub mod sanitizer;
pub mod strict;
pub mod taxonomy;

pub use battery::{Battery, BatteryStats, CheckStats, DurationHistogram, InputError};
pub use checkers::{Check, Interest};
pub use context::CheckContext;
pub use error::HvError;
pub use report::{Finding, MitigationFlags, PageReport};
pub use taxonomy::{Fixability, ProblemGroup, ViolationCategory, ViolationKind};
