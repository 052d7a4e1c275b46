//! Pipeline execution back-ends: virtual-time simulation ([`sim`]) and
//! real-thread native execution ([`native`]).

pub mod des;
pub mod native;
pub mod sim;
pub(crate) mod source;
pub(crate) mod stage;
