//! Schema graph and join-tree construction.
//!
//! Vertices are tables; every foreign key contributes an undirected edge
//! annotated with its `(child column, parent column)` pair. Joins are
//! resolved with breadth-first shortest paths (two tables) or the
//! Takahashi–Matsuyama Steiner-tree heuristic (three or more): start from one
//! terminal and repeatedly attach the terminal nearest to the current tree
//! via its shortest path. This is the approximation the paper references for
//! connecting all mentioned tables, including bridge tables the user never
//! mentions (e.g. `Has_Pet` between `Student` and `Pet`).

use crate::{ColumnId, DbSchema, TableId};
use std::collections::VecDeque;

/// One resolved join between two tables on a key pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// Table already present in the join tree.
    pub from_table: TableId,
    /// Column of `from_table` used in the `ON` clause.
    pub from_col: ColumnId,
    /// Newly attached table.
    pub to_table: TableId,
    /// Column of `to_table` used in the `ON` clause.
    pub to_col: ColumnId,
}

/// A connected tree of tables covering all requested terminals.
#[derive(Debug, Clone)]
pub struct JoinTree {
    /// Tables in attachment order; the first is the join root (`FROM` table).
    pub tables: Vec<TableId>,
    /// One edge per non-root table, in the same order as `tables[1..]`.
    pub edges: Vec<JoinEdge>,
}

impl JoinTree {
    /// Whether the tree had to include tables beyond the requested terminals
    /// (i.e. bridge tables were inserted).
    pub fn has_bridges(&self, terminals: &[TableId]) -> bool {
        self.tables.iter().any(|t| !terminals.contains(t))
    }
}

/// Undirected multigraph over the tables of one schema.
pub struct SchemaGraph {
    /// `adj[t]` lists `(neighbor, my_col, their_col)` triples.
    adj: Vec<Vec<(TableId, ColumnId, ColumnId)>>,
}

impl SchemaGraph {
    /// Builds the graph from the schema's foreign keys.
    pub fn new(schema: &DbSchema) -> Self {
        let mut adj = vec![Vec::new(); schema.tables.len()];
        for fk in &schema.foreign_keys {
            let (Some(ft), Some(tt)) =
                (schema.column(fk.from).table, schema.column(fk.to).table)
            else {
                continue;
            };
            if ft == tt {
                continue; // self-references don't help join planning
            }
            adj[ft.0].push((tt, fk.from, fk.to));
            adj[tt.0].push((ft, fk.to, fk.from));
        }
        SchemaGraph { adj }
    }

    /// Direct FK neighbours of a table.
    pub fn neighbors(&self, t: TableId) -> &[(TableId, ColumnId, ColumnId)] {
        &self.adj[t.0]
    }

    /// Shortest path between two tables as a list of edges, or `None` if the
    /// tables are not connected.
    pub fn shortest_path(&self, from: TableId, to: TableId) -> Option<Vec<JoinEdge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: Vec<Option<JoinEdge>> = vec![None; self.adj.len()];
        let mut seen = vec![false; self.adj.len()];
        seen[from.0] = true;
        let mut queue = VecDeque::from([from]);
        while let Some(t) = queue.pop_front() {
            for &(n, my_col, their_col) in &self.adj[t.0] {
                if seen[n.0] {
                    continue;
                }
                seen[n.0] = true;
                prev[n.0] = Some(JoinEdge {
                    from_table: t,
                    from_col: my_col,
                    to_table: n,
                    to_col: their_col,
                });
                if n == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let e = prev[cur.0].expect("path reconstruction");
                        path.push(e);
                        cur = e.from_table;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(n);
            }
        }
        None
    }

    /// Connects all `terminals` into a [`JoinTree`] using the
    /// Takahashi–Matsuyama heuristic. Returns `None` when any terminal is
    /// unreachable from the first. Terminal order is respected for
    /// determinism: the first terminal becomes the root.
    pub fn join_tree(&self, terminals: &[TableId]) -> Option<JoinTree> {
        assert!(!terminals.is_empty(), "join_tree: no terminals");
        let mut uniq = Vec::new();
        for &t in terminals {
            if !uniq.contains(&t) {
                uniq.push(t);
            }
        }
        let mut tree = JoinTree { tables: vec![uniq[0]], edges: Vec::new() };
        let mut remaining: Vec<TableId> = uniq[1..].to_vec();
        while !remaining.is_empty() {
            // Multi-source BFS from every table already in the tree.
            let mut prev: Vec<Option<JoinEdge>> = vec![None; self.adj.len()];
            let mut seen = vec![false; self.adj.len()];
            let mut queue = VecDeque::new();
            for &t in &tree.tables {
                seen[t.0] = true;
                queue.push_back(t);
            }
            let mut reached: Option<TableId> = None;
            'bfs: while let Some(t) = queue.pop_front() {
                for &(n, my_col, their_col) in &self.adj[t.0] {
                    if seen[n.0] {
                        continue;
                    }
                    seen[n.0] = true;
                    prev[n.0] = Some(JoinEdge {
                        from_table: t,
                        from_col: my_col,
                        to_table: n,
                        to_col: their_col,
                    });
                    if remaining.contains(&n) {
                        reached = Some(n);
                        break 'bfs;
                    }
                    queue.push_back(n);
                }
            }
            let target = reached?;
            // Walk back to the tree, collecting the path (tree-ward first).
            let mut path = Vec::new();
            let mut cur = target;
            while !tree.tables.contains(&cur) {
                let e = prev[cur.0].expect("path reconstruction");
                path.push(e);
                cur = e.from_table;
            }
            path.reverse();
            for e in path {
                tree.tables.push(e.to_table);
                tree.edges.push(e);
            }
            remaining.retain(|&t| t != target);
        }
        Some(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnType, SchemaBuilder};

    /// student —< has_pet >— pet, plus an unconnected island table.
    fn pets_schema() -> DbSchema {
        SchemaBuilder::new("pets")
            .table("student", &[("stu_id", ColumnType::Number), ("age", ColumnType::Number)])
            .primary_key("student", "stu_id")
            .table("has_pet", &[("stu_id", ColumnType::Number), ("pet_id", ColumnType::Number)])
            .table("pet", &[("pet_id", ColumnType::Number), ("weight", ColumnType::Number)])
            .primary_key("pet", "pet_id")
            .table("island", &[("x", ColumnType::Number)])
            .foreign_key("has_pet", "stu_id", "student", "stu_id")
            .foreign_key("has_pet", "pet_id", "pet", "pet_id")
            .build()
    }

    #[test]
    fn shortest_path_inserts_bridge() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let student = s.table_by_name("student").unwrap();
        let pet = s.table_by_name("pet").unwrap();
        let path = g.shortest_path(student, pet).expect("connected");
        assert_eq!(path.len(), 2);
        assert_eq!(s.table(path[0].to_table).name, "has_pet");
        assert_eq!(s.qualified(path[0].from_col), "student.stu_id");
        assert_eq!(s.qualified(path[0].to_col), "has_pet.stu_id");
        assert_eq!(s.qualified(path[1].to_col), "pet.pet_id");
    }

    #[test]
    fn shortest_path_same_table_is_empty() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let student = s.table_by_name("student").unwrap();
        assert_eq!(g.shortest_path(student, student).unwrap().len(), 0);
    }

    #[test]
    fn disconnected_tables_yield_none() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let student = s.table_by_name("student").unwrap();
        let island = s.table_by_name("island").unwrap();
        assert!(g.shortest_path(student, island).is_none());
        assert!(g.join_tree(&[student, island]).is_none());
    }

    #[test]
    fn join_tree_two_terminals_includes_bridge() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let student = s.table_by_name("student").unwrap();
        let pet = s.table_by_name("pet").unwrap();
        let tree = g.join_tree(&[student, pet]).unwrap();
        assert_eq!(tree.tables.len(), 3);
        assert_eq!(tree.edges.len(), 2);
        assert_eq!(tree.tables[0], student, "first terminal is the root");
        assert!(tree.has_bridges(&[student, pet]));
        // Every edge attaches a new table to an already-present one.
        for (i, e) in tree.edges.iter().enumerate() {
            assert!(tree.tables[..=i].contains(&e.from_table));
            assert_eq!(tree.tables[i + 1], e.to_table);
        }
    }

    #[test]
    fn join_tree_single_terminal() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let pet = s.table_by_name("pet").unwrap();
        let tree = g.join_tree(&[pet]).unwrap();
        assert_eq!(tree.tables, vec![pet]);
        assert!(tree.edges.is_empty());
        assert!(!tree.has_bridges(&[pet]));
    }

    #[test]
    fn join_tree_dedupes_terminals() {
        let s = pets_schema();
        let g = SchemaGraph::new(&s);
        let student = s.table_by_name("student").unwrap();
        let tree = g.join_tree(&[student, student, student]).unwrap();
        assert_eq!(tree.tables, vec![student]);
    }

    /// A star-shaped schema where the Steiner tree must reuse the hub.
    #[test]
    fn steiner_tree_star_topology() {
        let s = SchemaBuilder::new("star")
            .table("hub", &[("id", ColumnType::Number)])
            .primary_key("hub", "id")
            .table("a", &[("hub_id", ColumnType::Number), ("v", ColumnType::Number)])
            .table("b", &[("hub_id", ColumnType::Number), ("v", ColumnType::Number)])
            .table("c", &[("hub_id", ColumnType::Number), ("v", ColumnType::Number)])
            .foreign_key("a", "hub_id", "hub", "id")
            .foreign_key("b", "hub_id", "hub", "id")
            .foreign_key("c", "hub_id", "hub", "id")
            .build();
        let g = SchemaGraph::new(&s);
        let (a, b, c) = (
            s.table_by_name("a").unwrap(),
            s.table_by_name("b").unwrap(),
            s.table_by_name("c").unwrap(),
        );
        let tree = g.join_tree(&[a, b, c]).unwrap();
        // Optimal Steiner tree: a-hub, hub-b, hub-c → 4 tables, 3 edges.
        assert_eq!(tree.tables.len(), 4);
        assert_eq!(tree.edges.len(), 3);
        let hub = s.table_by_name("hub").unwrap();
        assert!(tree.tables.contains(&hub));
    }

    #[test]
    fn self_referencing_fk_is_ignored() {
        let s = SchemaBuilder::new("tree")
            .table("emp", &[("id", ColumnType::Number), ("boss_id", ColumnType::Number)])
            .primary_key("emp", "id")
            .foreign_key("emp", "boss_id", "emp", "id")
            .build();
        let g = SchemaGraph::new(&s);
        let emp = s.table_by_name("emp").unwrap();
        assert!(g.neighbors(emp).is_empty());
        assert_eq!(g.join_tree(&[emp]).unwrap().tables, vec![emp]);
    }
}
