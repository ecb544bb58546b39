use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

macro_rules! symbol_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Dense index of the symbol, usable as an array key.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

symbol_type!(
    /// Interned name of an atomic concept (e.g. `TvProgram`).
    ConceptName
);
symbol_type!(
    /// Interned name of a role (e.g. `hasGenre`).
    RoleName
);
symbol_type!(
    /// Interned identifier of an individual (e.g. `Oprah`).
    IndividualId
);

/// A string interner shared by the three symbol kinds. Each name is kept
/// once: the `Arc<str>` the id → name list holds is the name → id map's
/// key, so a clone copies a pointer per name and a map of pointers.
#[derive(Debug, Clone, Default)]
struct Interner {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, u32>,
}

impl Interner {
    /// The id of `name`, interning it if it is new: a name already there
    /// is one probe and no allocation, a new one one allocation.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("too many symbols");
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|name| &**name)
    }

    fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(|name| &**name)
    }
}

/// The interned vocabulary of a DL knowledge base: concept names, role
/// names, and individuals.
///
/// Symbols are cheap `Copy` handles; all name lookups go through the
/// vocabulary. A vocabulary is append-only.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    concepts: Interner,
    roles: Interner,
    individuals: Interner,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns (or retrieves) a concept name.
    pub fn concept(&mut self, name: &str) -> ConceptName {
        ConceptName(self.concepts.intern(name))
    }

    /// Interns (or retrieves) a role name.
    pub fn role(&mut self, name: &str) -> RoleName {
        RoleName(self.roles.intern(name))
    }

    /// Interns (or retrieves) an individual.
    pub fn individual(&mut self, name: &str) -> IndividualId {
        IndividualId(self.individuals.intern(name))
    }

    /// Looks up an existing concept name without interning.
    pub fn find_concept(&self, name: &str) -> Option<ConceptName> {
        self.concepts.get(name).map(ConceptName)
    }

    /// Looks up an existing role name without interning.
    pub fn find_role(&self, name: &str) -> Option<RoleName> {
        self.roles.get(name).map(RoleName)
    }

    /// Looks up an existing individual without interning.
    pub fn find_individual(&self, name: &str) -> Option<IndividualId> {
        self.individuals.get(name).map(IndividualId)
    }

    /// Name of a concept.
    pub fn concept_name(&self, c: ConceptName) -> &str {
        self.concepts.name(c.0).unwrap_or("<unknown-concept>")
    }

    /// Name of a role.
    pub fn role_name(&self, r: RoleName) -> &str {
        self.roles.name(r.0).unwrap_or("<unknown-role>")
    }

    /// Name of an individual.
    pub fn individual_name(&self, i: IndividualId) -> &str {
        self.individuals.name(i.0).unwrap_or("<unknown-individual>")
    }

    /// Number of interned concept names.
    pub fn num_concepts(&self) -> usize {
        self.concepts.names.len()
    }

    /// Number of interned roles.
    pub fn num_roles(&self) -> usize {
        self.roles.names.len()
    }

    /// Number of interned individuals.
    pub fn num_individuals(&self) -> usize {
        self.individuals.names.len()
    }

    /// Iterates over all interned individuals.
    pub fn individual_ids(&self) -> impl Iterator<Item = IndividualId> + '_ {
        (0..self.individuals.names.len()).map(|i| IndividualId(i as u32))
    }

    /// Iterates over concept names in interning order. Re-interning the
    /// yielded names into a fresh vocabulary, in order, reproduces the
    /// exact same [`ConceptName`] handles — the contract persistence
    /// relies on to keep symbol handles stable across a save/restore.
    pub fn concept_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.concepts.names()
    }

    /// Iterates over role names in interning order (see
    /// [`Vocabulary::concept_names`] for the reproducibility contract).
    pub fn role_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.roles.names()
    }

    /// Iterates over individual names in interning order (see
    /// [`Vocabulary::concept_names`] for the reproducibility contract).
    pub fn individual_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.individuals.names()
    }
}

impl fmt::Display for Vocabulary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vocabulary: {} concepts, {} roles, {} individuals",
            self.num_concepts(),
            self.num_roles(),
            self.num_individuals()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.concept("TvProgram");
        let b = v.concept("TvProgram");
        assert_eq!(a, b);
        assert_eq!(v.num_concepts(), 1);
        assert_eq!(v.concept_name(a), "TvProgram");
    }

    #[test]
    fn kinds_are_separate_namespaces() {
        let mut v = Vocabulary::new();
        let c = v.concept("News");
        let i = v.individual("News");
        assert_eq!(c.index(), 0);
        assert_eq!(i.index(), 0);
        assert_eq!(v.num_concepts(), 1);
        assert_eq!(v.num_individuals(), 1);
    }

    #[test]
    fn find_does_not_intern() {
        let mut v = Vocabulary::new();
        assert_eq!(v.find_role("hasGenre"), None);
        let r = v.role("hasGenre");
        assert_eq!(v.find_role("hasGenre"), Some(r));
        assert_eq!(v.role_name(r), "hasGenre");
    }

    #[test]
    fn display_summary() {
        let mut v = Vocabulary::new();
        v.concept("A");
        v.role("r");
        v.individual("x");
        v.individual("y");
        assert_eq!(
            v.to_string(),
            "vocabulary: 1 concepts, 1 roles, 2 individuals"
        );
    }
}
