//! The ASIC template set: dataflow styles of existing accelerator designs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A dataflow template, i.e. the loop order / spatial unrolling style of an
/// existing accelerator design.
///
/// The paper builds its template set from three published designs:
///
/// * **Shidiannao** — output-stationary style that unrolls the *output
///   feature map* spatially; it favours layers with high activation
///   resolution and few channels (early convolutions, U-Net levels).
/// * **NVDLA** — adder-tree style that unrolls *channels* spatially
///   (loads one pixel from each activation channel per step); it favours
///   layers with many channels and low resolution (late ResNet blocks).
/// * **Row-stationary** (Eyeriss) — balances reuse of weights, inputs and
///   partial sums along rows; a good all-rounder with higher buffer cost.
///
/// The variants are declared in [`index`](Self::index) order, so the
/// derived `Ord` orders dataflows (and accelerators) as their indices do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Shidiannao-style output-stationary dataflow.
    Shidiannao,
    /// NVDLA-style channel-parallel adder-tree dataflow.
    Nvdla,
    /// Eyeriss-style row-stationary dataflow.
    RowStationary,
}

impl Dataflow {
    /// All templates in the paper's template set, in a stable order.
    pub fn all() -> [Dataflow; 3] {
        [
            Dataflow::Shidiannao,
            Dataflow::Nvdla,
            Dataflow::RowStationary,
        ]
    }

    /// The abbreviation used in the paper's tables (`shi`, `dla`, `rs`).
    pub fn abbreviation(&self) -> &'static str {
        match self {
            Dataflow::Shidiannao => "shi",
            Dataflow::Nvdla => "dla",
            Dataflow::RowStationary => "rs",
        }
    }

    /// Stable index of the template inside [`Dataflow::all`] (used to
    /// encode dataflow choices as controller actions).
    pub fn index(&self) -> usize {
        match self {
            Dataflow::Shidiannao => 0,
            Dataflow::Nvdla => 1,
            Dataflow::RowStationary => 2,
        }
    }

    /// Inverse of [`Dataflow::index`].
    pub fn from_index(index: usize) -> Option<Dataflow> {
        Dataflow::all().get(index).copied()
    }

    /// Relative weight-buffer pressure of the dataflow (used by the area
    /// model): row-stationary keeps the most state per PE, Shidiannao the
    /// least.
    pub fn buffer_pressure(&self) -> f64 {
        match self {
            Dataflow::Shidiannao => 1.0,
            Dataflow::Nvdla => 1.25,
            Dataflow::RowStationary => 1.6,
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbreviation())
    }
}

/// Error returned when parsing an unknown dataflow abbreviation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataflowError {
    /// The string that failed to parse.
    pub input: String,
}

impl fmt::Display for ParseDataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown dataflow '{}' (expected one of: shi, dla, rs, shidiannao, nvdla, row-stationary)",
            self.input
        )
    }
}

impl std::error::Error for ParseDataflowError {}

impl FromStr for Dataflow {
    type Err = ParseDataflowError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "shi" | "shidiannao" => Ok(Dataflow::Shidiannao),
            "dla" | "nvdla" => Ok(Dataflow::Nvdla),
            "rs" | "row-stationary" | "rowstationary" | "eyeriss" => Ok(Dataflow::RowStationary),
            _ => Err(ParseDataflowError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_three_templates() {
        assert_eq!(Dataflow::all().len(), 3);
    }

    #[test]
    fn abbreviations_match_paper_tables() {
        assert_eq!(Dataflow::Shidiannao.abbreviation(), "shi");
        assert_eq!(Dataflow::Nvdla.abbreviation(), "dla");
        assert_eq!(Dataflow::RowStationary.abbreviation(), "rs");
    }

    #[test]
    fn index_round_trip() {
        for df in Dataflow::all() {
            assert_eq!(Dataflow::from_index(df.index()), Some(df));
        }
        assert_eq!(Dataflow::from_index(3), None);
    }

    #[test]
    fn parsing_accepts_full_names_and_abbreviations() {
        assert_eq!("dla".parse::<Dataflow>().unwrap(), Dataflow::Nvdla);
        assert_eq!(
            "Shidiannao".parse::<Dataflow>().unwrap(),
            Dataflow::Shidiannao
        );
        assert_eq!(
            "eyeriss".parse::<Dataflow>().unwrap(),
            Dataflow::RowStationary
        );
        let err = "tpu".parse::<Dataflow>().unwrap_err();
        assert!(err.to_string().contains("tpu"));
    }

    #[test]
    fn buffer_pressure_ordering() {
        assert!(Dataflow::RowStationary.buffer_pressure() > Dataflow::Nvdla.buffer_pressure());
        assert!(Dataflow::Nvdla.buffer_pressure() > Dataflow::Shidiannao.buffer_pressure());
    }

    #[test]
    fn display_uses_abbreviation() {
        assert_eq!(Dataflow::Nvdla.to_string(), "dla");
    }
}
