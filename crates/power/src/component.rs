//! Hardware component identities.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A power-drawing hardware component of the simulated handset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Component {
    /// The application processor.
    Cpu,
    /// The LCD/OLED panel and backlight.
    Screen,
    /// The WiFi radio.
    Wifi,
    /// The cellular modem.
    Cellular,
    /// The GPS receiver.
    Gps,
    /// The camera sensor and ISP.
    Camera,
    /// The audio codec and speaker.
    Audio,
}

impl Component {
    /// All components, in display order.
    pub const ALL: [Component; 7] = [
        Component::Cpu,
        Component::Screen,
        Component::Wifi,
        Component::Cellular,
        Component::Gps,
        Component::Camera,
        Component::Audio,
    ];

    /// A short lowercase label for tables and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            Component::Cpu => "cpu",
            Component::Screen => "screen",
            Component::Wifi => "wifi",
            Component::Cellular => "cellular",
            Component::Gps => "gps",
            Component::Camera => "camera",
            Component::Audio => "audio",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = Component::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Component::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        for component in Component::ALL {
            assert_eq!(component.to_string(), component.label());
        }
    }
}
