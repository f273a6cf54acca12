//! Accounting entities.

use std::fmt;

use serde::{Deserialize, Serialize};

use ea_sim::Uid;

/// Something energy can be charged to.
///
/// The stock Android battery interface lists apps plus a standalone
/// "Screen" row; PowerTutor folds the screen into the foreground app. Both
/// need the same entity vocabulary, with `System` absorbing draw no app
/// caused (awake floor, radio idle, suspend current).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Entity {
    /// An installed app, by sandbox UID.
    App(Uid),
    /// The screen as an independent accounting row (the stock Android
    /// policy).
    Screen,
    /// Unattributed system draw.
    System,
}

impl Entity {
    /// The app UID, when this entity is an app.
    pub fn uid(self) -> Option<Uid> {
        match self {
            Entity::App(uid) => Some(uid),
            _ => None,
        }
    }
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::App(uid) => write!(f, "app({})", uid.as_raw()),
            Entity::Screen => f.write_str("screen"),
            Entity::System => f.write_str("system"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_extraction() {
        assert_eq!(Entity::App(Uid::FIRST_APP).uid(), Some(Uid::FIRST_APP));
        assert_eq!(Entity::Screen.uid(), None);
        assert_eq!(Entity::System.uid(), None);
    }

    #[test]
    fn ordering_is_stable_for_display() {
        let mut entities = [Entity::System, Entity::App(Uid::FIRST_APP), Entity::Screen];
        entities.sort();
        assert_eq!(entities[0], Entity::App(Uid::FIRST_APP));
    }
}
