//! One module per paper table/figure, plus ablations.

pub mod extensions;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig9;
pub mod first_contact;
pub mod sec65;
pub mod storage_ablation;
pub mod table2;
pub mod table3;
