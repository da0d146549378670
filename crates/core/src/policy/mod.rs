//! The operational policies of §5.3–§5.5.
//!
//! * [`pause`] — when to halt optimization: the standard deviation of the
//!   end-to-end delays achieved by the N best configurations falls below a
//!   threshold S (§5.3.5's "impeded progress rule").
//! * [`reset`] — when to restart: the standard deviation of recent input
//!   rates exceeds `threshold_speed`, signalling a traffic surge that the
//!   now-tiny SPSA step sizes could not chase (§5.5).
//! * [`window`] — how many batches to average: a minimum window during
//!   optimization, grown additively while the system sits at an optimum —
//!   capped so the controller never goes blind to regime changes (§5.4).
//!   §5.4's skip-first rule is part of [`crate::measure`]'s protocol.

pub mod pause;
pub mod reset;
pub mod window;

pub use pause::PauseRule;
pub use reset::ResetRule;
pub use window::WindowPolicy;
