//! # esg-metadata — the CDMS metadata catalog
//!
//! "A metadata catalog that is used to map specified attributes describing
//! the data into logical file names that identify which simulation data
//! set elements contain the data of interest" (§2). Figure 2 of the paper
//! shows the VCDAT selection screen this catalog powers: the user picks a
//! model, variable and time range; the catalog answers with logical file
//! names to hand to the request manager.
//!
//! Built on the LDAP substrate (`esg-directory`), exactly as CDMS's
//! catalog was ("Based on Lightweight Directory Access Protocol").

use esg_cdms::partition::{files_for_range, LogicalFile};
use esg_directory::{Directory, Dn, Entry, Filter, Scope};

/// A variable offered by a dataset, with the descriptive text Figure 2
/// displays next to each selection row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableInfo {
    pub name: String,
    pub units: String,
    pub description: String,
}

/// Everything needed to register a dataset.
#[derive(Debug, Clone)]
pub struct DatasetDescription {
    /// Dataset id, e.g. `pcm_b06.61`.
    pub name: String,
    /// Model name (PCM, CCSM, ...).
    pub model: String,
    /// Experiment / run id.
    pub experiment: String,
    pub institution: String,
    pub variables: Vec<VariableInfo>,
    /// Total time steps in the dataset.
    pub total_steps: usize,
    /// Steps per physical file (chunking).
    pub steps_per_file: usize,
    /// Serialized bytes per time step (all variables).
    pub bytes_per_step: u64,
    /// The replica-catalog logical collection holding the files.
    pub collection: String,
}

/// Errors from the metadata catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataError {
    NoSuchDataset(String),
    NoSuchVariable { dataset: String, variable: String },
    AlreadyRegistered(String),
    BadQuery(String),
}

impl std::fmt::Display for MetadataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetadataError::NoSuchDataset(d) => write!(f, "no such dataset: {d}"),
            MetadataError::NoSuchVariable { dataset, variable } => {
                write!(f, "dataset {dataset} has no variable {variable}")
            }
            MetadataError::AlreadyRegistered(d) => write!(f, "already registered: {d}"),
            MetadataError::BadQuery(q) => write!(f, "bad query: {q}"),
        }
    }
}

impl std::error::Error for MetadataError {}

fn mc_base() -> Dn {
    Dn::parse("mc=ESG Metadata Catalog, o=Grid").expect("static DN")
}

/// The metadata catalog.
#[derive(Debug, Default)]
pub struct MetadataCatalog {
    dir: Directory,
    /// Partition tables per dataset (kept structured; the directory holds
    /// the searchable attributes).
    partitions: std::collections::HashMap<String, Vec<LogicalFile>>,
}

impl MetadataCatalog {
    pub fn new() -> Self {
        let mut dir = Directory::new();
        dir.add_with_ancestors(Entry::new(mc_base()).with("objectclass", "CdmsCatalog"))
            .expect("fresh directory");
        MetadataCatalog {
            dir,
            partitions: Default::default(),
        }
    }

    fn dataset_dn(name: &str) -> Dn {
        mc_base().child("ds", name)
    }

    /// Register a dataset and compute its logical-file partition.
    pub fn register(&mut self, desc: &DatasetDescription) -> Result<(), MetadataError> {
        let dn = Self::dataset_dn(&desc.name);
        if self.dir.get(&dn).is_some() {
            return Err(MetadataError::AlreadyRegistered(desc.name.clone()));
        }
        let mut entry = Entry::new(dn.clone())
            .with("objectclass", "CdmsDataset")
            .with("model", desc.model.clone())
            .with("experiment", desc.experiment.clone())
            .with("institution", desc.institution.clone())
            .with("collection", desc.collection.clone())
            .with("timesteps", desc.total_steps.to_string());
        for v in &desc.variables {
            entry.add("variable", v.name.clone());
        }
        self.dir.add(entry).expect("parent exists");
        for v in &desc.variables {
            self.dir
                .add(
                    Entry::new(dn.child("var", &v.name))
                        .with("objectclass", "CdmsVariable")
                        .with("units", v.units.clone())
                        .with("description", v.description.clone()),
                )
                .expect("parent exists");
        }
        self.partitions.insert(
            desc.name.clone(),
            esg_cdms::partition_by_time(
                &desc.name,
                desc.total_steps,
                desc.steps_per_file,
                desc.bytes_per_step,
            ),
        );
        Ok(())
    }

    /// All dataset names.
    pub fn datasets(&self) -> Vec<String> {
        self.dir
            .search(
                &mc_base(),
                Scope::OneLevel,
                &Filter::eq("objectclass", "CdmsDataset"),
            )
            .into_iter()
            .map(|e| e.dn.leaf().unwrap().value.clone())
            .collect()
    }

    /// Dataset names matching an LDAP-style filter over dataset attributes
    /// (model, experiment, institution, variable, timesteps).
    pub fn search(&self, filter: &str) -> Result<Vec<String>, MetadataError> {
        let f = Filter::parse(filter).map_err(|e| MetadataError::BadQuery(e.to_string()))?;
        Ok(self
            .dir
            .search(&mc_base(), Scope::OneLevel, &f)
            .into_iter()
            .filter(|e| e.values("objectclass").iter().any(|c| c == "CdmsDataset"))
            .map(|e| e.dn.leaf().unwrap().value.clone())
            .collect())
    }

    /// The variables of a dataset with their descriptions (the Figure 2
    /// listing).
    pub fn variables(&self, dataset: &str) -> Result<Vec<VariableInfo>, MetadataError> {
        let dn = Self::dataset_dn(dataset);
        if self.dir.get(&dn).is_none() {
            return Err(MetadataError::NoSuchDataset(dataset.to_string()));
        }
        Ok(self
            .dir
            .search(
                &dn,
                Scope::OneLevel,
                &Filter::eq("objectclass", "CdmsVariable"),
            )
            .into_iter()
            .map(|e| VariableInfo {
                name: e.dn.leaf().unwrap().value.clone(),
                units: e.first("units").unwrap_or("").to_string(),
                description: e.first("description").unwrap_or("").to_string(),
            })
            .collect())
    }

    /// The replica-catalog collection holding a dataset's files.
    pub fn collection_of(&self, dataset: &str) -> Result<String, MetadataError> {
        self.dir
            .get(&Self::dataset_dn(dataset))
            .and_then(|e| e.first("collection").map(|s| s.to_string()))
            .ok_or_else(|| MetadataError::NoSuchDataset(dataset.to_string()))
    }

    /// The core mapping of §3: (dataset, variable, time range in steps) →
    /// logical file names. "A CDAT client ... contains the logic to query
    /// the metadata catalog and translate a dataset name, variable name,
    /// and spatiotemporal region into the logical file names stored in the
    /// replica catalog."
    pub fn resolve(
        &self,
        dataset: &str,
        variable: &str,
        step_range: (usize, usize),
    ) -> Result<Vec<LogicalFile>, MetadataError> {
        let dn = Self::dataset_dn(dataset);
        let entry = self
            .dir
            .get(&dn)
            .ok_or_else(|| MetadataError::NoSuchDataset(dataset.to_string()))?;
        if !entry.values("variable").iter().any(|v| v == variable) {
            return Err(MetadataError::NoSuchVariable {
                dataset: dataset.to_string(),
                variable: variable.to_string(),
            });
        }
        let files = self
            .partitions
            .get(dataset)
            .ok_or_else(|| MetadataError::NoSuchDataset(dataset.to_string()))?;
        Ok(files_for_range(files, step_range.0, step_range.1)
            .into_iter()
            .cloned()
            .collect())
    }

    /// Every logical file of a dataset.
    pub fn all_files(&self, dataset: &str) -> Result<&[LogicalFile], MetadataError> {
        self.partitions
            .get(dataset)
            .map(|v| v.as_slice())
            .ok_or_else(|| MetadataError::NoSuchDataset(dataset.to_string()))
    }

    /// Every logical file of a dataset as the `(collection, file)` pair a
    /// request names it by, in [`MetadataCatalog::all_files`] order.
    pub fn request_files(&self, dataset: &str) -> Result<Vec<(String, String)>, MetadataError> {
        let collection = self.collection_of(dataset)?;
        Ok(self
            .all_files(dataset)?
            .iter()
            .map(|f| (collection.clone(), f.name.clone()))
            .collect())
    }
}

/// A convenient standard description for synthetic PCM-like output.
pub fn synthetic_description(
    name: &str,
    total_steps: usize,
    steps_per_file: usize,
    bytes_per_step: u64,
) -> DatasetDescription {
    DatasetDescription {
        name: name.to_string(),
        model: "PCM".to_string(),
        experiment: "b06.61".to_string(),
        institution: "NCAR/LLNL (synthetic)".to_string(),
        variables: vec![
            VariableInfo {
                name: "tas".into(),
                units: "K".into(),
                description: "surface air temperature".into(),
            },
            VariableInfo {
                name: "pr".into(),
                units: "mm/day".into(),
                description: "precipitation rate".into(),
            },
            VariableInfo {
                name: "clt".into(),
                units: "1".into(),
                description: "cloud fraction".into(),
            },
        ],
        total_steps,
        steps_per_file,
        bytes_per_step,
        collection: format!("{name} collection"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> MetadataCatalog {
        let mut mc = MetadataCatalog::new();
        mc.register(&synthetic_description("pcm_b06.61", 120, 8, 1_000_000))
            .unwrap();
        let mut ccsm = synthetic_description("ccsm_run1", 64, 16, 2_000_000);
        ccsm.model = "CCSM".to_string();
        mc.register(&ccsm).unwrap();
        mc
    }

    #[test]
    fn register_and_list() {
        let mc = catalog();
        let mut ds = mc.datasets();
        ds.sort();
        assert_eq!(ds, vec!["ccsm_run1", "pcm_b06.61"]);
    }

    #[test]
    fn duplicate_rejected() {
        let mut mc = catalog();
        let err = mc
            .register(&synthetic_description("pcm_b06.61", 10, 2, 1))
            .unwrap_err();
        assert!(matches!(err, MetadataError::AlreadyRegistered(_)));
    }

    #[test]
    fn attribute_search() {
        let mc = catalog();
        assert_eq!(mc.search("(model=PCM)").unwrap(), vec!["pcm_b06.61"]);
        assert_eq!(
            mc.search("(&(variable=tas)(timesteps>=100))").unwrap(),
            vec!["pcm_b06.61"]
        );
        assert_eq!(mc.search("(model=ECHAM)").unwrap(), Vec::<String>::new());
        assert!(mc.search("not a filter").is_err());
    }

    #[test]
    fn variables_listed_with_descriptions() {
        let mc = catalog();
        let vars = mc.variables("pcm_b06.61").unwrap();
        assert_eq!(vars.len(), 3);
        let tas = vars.iter().find(|v| v.name == "tas").unwrap();
        assert_eq!(tas.units, "K");
        assert!(tas.description.contains("temperature"));
        assert!(mc.variables("nope").is_err());
    }

    #[test]
    fn resolve_maps_time_range_to_files() {
        let mc = catalog();
        // Steps 10..30 over 8-step chunks → chunks [8,16), [16,24), [24,32).
        let files = mc.resolve("pcm_b06.61", "tas", (10, 30)).unwrap();
        assert_eq!(files.len(), 3);
        assert_eq!(files[0].start_step, 8);
        assert_eq!(files[2].end_step, 32);
        // Sizes derive from bytes_per_step.
        assert_eq!(files[0].size, 8_000_000);
    }

    #[test]
    fn resolve_validates_variable() {
        let mc = catalog();
        assert!(matches!(
            mc.resolve("pcm_b06.61", "salinity", (0, 10)),
            Err(MetadataError::NoSuchVariable { .. })
        ));
    }

    #[test]
    fn whole_dataset_files() {
        let mc = catalog();
        assert_eq!(mc.all_files("pcm_b06.61").unwrap().len(), 15);
        assert_eq!(mc.all_files("ccsm_run1").unwrap().len(), 4);
    }

    #[test]
    fn collection_mapping() {
        let mc = catalog();
        assert_eq!(
            mc.collection_of("pcm_b06.61").unwrap(),
            "pcm_b06.61 collection"
        );
    }

    #[test]
    fn request_files_pair_the_collection_with_each_file_in_order() {
        let mc = catalog();
        let pairs = mc.request_files("ccsm_run1").unwrap();
        let names: Vec<&str> = mc
            .all_files("ccsm_run1")
            .unwrap()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names.len(), 4);
        assert_eq!(
            pairs.iter().map(|(_, f)| f.as_str()).collect::<Vec<_>>(),
            names
        );
        assert!(pairs.iter().all(|(c, _)| c == "ccsm_run1 collection"));
        assert_eq!(
            mc.request_files("nope"),
            Err(MetadataError::NoSuchDataset("nope".into()))
        );
    }
}
