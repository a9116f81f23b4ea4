//! Query model for the SIGMOD'14 stratified-sampling reproduction.
//!
//! Implements the paper's framework (§3): propositional selection
//! formulas, stratum constraints, single-survey **SSD** queries,
//! multi-survey **MSSD** queries with a shared-cost model, and the
//! §6.1.2 query-group generation framework used by the evaluation.
//!
//! ```
//! use stratmr_population::{AttrDef, Schema, Individual};
//! use stratmr_query::{Formula, SsdQuery, StratumConstraint};
//!
//! let schema = Schema::new(vec![AttrDef::numeric("age", 0, 120)]);
//! let age = schema.attr_id("age").unwrap();
//! // survey 50 minors and 100 adults
//! let q = SsdQuery::new(vec![
//!     StratumConstraint::new(Formula::lt(age, 18), 50),
//!     StratumConstraint::new(Formula::ge(age, 18), 100),
//! ]);
//! let kid = Individual::new(0, vec![12], 0);
//! assert_eq!(q.matching_stratum(&kid), Some(0));
//! ```

#![warn(missing_docs)]

pub mod allocation;
pub mod costs;
pub mod formula;
pub mod generator;
pub mod matcher;
pub mod mssd;
pub mod parser;
pub mod ssd;
pub mod survey_set;
pub mod validity;

pub use allocation::{allocate, design_ssd, Allocation};
pub use costs::{CostModel, SharingBase};
pub use formula::{CmpOp, Formula};
pub use generator::{GroupSpec, QueryGenerator};
pub use matcher::SelectionMatcher;
pub use mssd::{MssdAnswer, MssdQuery};
pub use parser::{parse_formula, ParseError};
pub use ssd::{SsdAnswer, SsdError, SsdQuery, StratumConstraint, StratumId};
pub use survey_set::{SurveySet, MAX_SURVEYS};
pub use validity::{check_disjoint_static, StaticCheck};
