//! The flat dependency-list store the engines share (see the crate docs'
//! "Dependency lists").

/// No block, the end of an edge list, and one past the most blocks, edges
/// and block positions the store holds.
pub const NIL: u32 = u32::MAX;

/// One batch's rows: `data[data[r] as usize..data[r + 1] as usize]` is row
/// `r`, and the entries follow the offsets.
#[derive(Debug)]
struct Block {
    /// Key of the batch's first member.
    first: u64,
    /// Members not settled yet; the last to settle frees `data`.
    unsettled: u32,
    data: Vec<u32>,
}

/// One entry of an edge list, and the next edge. A list is circular and
/// named by its last edge, whose `next` is the first: appending and
/// freeing the whole list take one step each.
#[derive(Debug, Clone, Copy)]
struct Edge {
    entry: u32,
    next: u32,
}

/// A position in one key's list: a row of a block, then an edge list
/// ([`DepLists::walk`]).
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    block: u32,
    at: usize,
    end: usize,
    edge: u32,
    last: u32,
}

/// Dependency lists in flat 32-bit stores: compressed rows per batch, and
/// edge lists for entries filed after their key's batch. What an entry
/// means (a slot, a distance, a key) is the caller's.
#[derive(Debug)]
pub struct DepLists {
    blocks: Vec<Block>,
    free_blocks: Vec<u32>,
    edges: Vec<Edge>,
    /// First edge of the free list, which [`NIL`] ends.
    free_edge: u32,
}

impl Default for DepLists {
    fn default() -> Self {
        Self::new()
    }
}

impl DepLists {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self {
            blocks: Vec::new(),
            free_blocks: Vec::new(),
            edges: Vec::new(),
            free_edge: NIL,
        }
    }

    /// Drop every block and edge, keeping the allocations.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.free_blocks.clear();
        self.edges.clear();
        self.free_edge = NIL;
    }

    /// Does a batch fit in 32 bits: a block of `rows` rows holding
    /// `entries` entries (none without entries), then `edges` edges? Every
    /// block position and offset and every block and edge index must stay
    /// below [`NIL`], counting each edge as a new one (a freed edge is
    /// reused first, so the store may hold fewer).
    #[inline]
    #[must_use]
    pub fn fits(&self, rows: usize, entries: usize, edges: usize) -> bool {
        let limit = NIL as usize;
        let block = entries == 0
            || (rows.checked_add(entries).is_some_and(|len| len < limit)
                && (!self.free_blocks.is_empty() || self.blocks.len() < limit));
        block
            && self
                .edges
                .len()
                .checked_add(edges)
                .is_some_and(|n| n <= limit)
    }

    /// A block for a batch of `members` keys from `first` on, with `rows`
    /// rows of `entries` entries in all, for [`DepLists::fill`], or [`NIL`]
    /// without entries. The caller checks [`DepLists::fits`] first.
    #[inline]
    pub fn open(&mut self, first: u64, members: u32, rows: usize, entries: usize) -> u32 {
        if entries == 0 {
            return NIL;
        }
        let mut data = vec![0; rows + 1 + entries];
        // In range: `fits` bounds the block. `data[0]` keeps the row count
        // until `fill`.
        data[0] = rows as u32;
        let block = Block {
            first,
            unsettled: members,
            data,
        };
        match self.free_blocks.pop() {
            Some(b) => {
                self.blocks[b as usize] = block;
                b
            }
            None => {
                self.blocks.push(block);
                (self.blocks.len() - 1) as u32
            }
        }
    }

    /// Fill an opened block with its `(row, entry)` pairs, which `entries`
    /// yields twice, the same each time: each row reads back in the order
    /// its entries came.
    #[inline]
    pub fn fill<I>(&mut self, block: u32, entries: impl Fn() -> I)
    where
        I: Iterator<Item = (usize, u32)>,
    {
        let Some(b) = self.blocks.get_mut(block as usize) else {
            return;
        };
        let data = &mut b.data;
        let rows = data[0] as usize;
        // Count each entry two offsets on, so that the sums leave each
        // row's start one offset on, where each entry put moves it on to
        // the row's end.
        // (`for_each`, unlike a `for` loop, folds nested iterators as
        // nested loops.)
        entries().for_each(|(row, _)| {
            if row + 2 <= rows {
                data[row + 2] += 1;
            }
        });
        data[0] = rows as u32 + 1;
        data[1] = rows as u32 + 1;
        for r in 2..=rows {
            data[r] += data[r - 1];
        }
        entries().for_each(|(row, entry)| {
            let at = data[row + 1];
            data[at as usize] = entry;
            data[row + 1] = at + 1;
        });
    }

    /// The row of `key` in a block of one row per member (0 without a
    /// block).
    #[inline]
    #[must_use]
    pub fn row_of(&self, block: u32, key: u64) -> usize {
        self.blocks
            .get(block as usize)
            .map_or(0, |b| (key - b.first) as usize)
    }

    /// The row of `key` in a block of one row per member, found in one
    /// lookup (empty without a block).
    #[inline]
    #[must_use]
    pub fn row(&self, block: u32, key: u64) -> &[u32] {
        let Some(b) = self.blocks.get(block as usize) else {
            return &[];
        };
        let row = (key - b.first) as usize;
        match (b.data.get(row), b.data.get(row + 1)) {
            (Some(&at), Some(&end)) => b.data.get(at as usize..end as usize).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Count one member of `block` settled: the last frees the block.
    #[inline]
    pub fn settle(&mut self, block: u32) {
        if let Some(b) = self.blocks.get_mut(block as usize) {
            if b.unsettled > 0 {
                b.unsettled -= 1;
                if b.unsettled == 0 {
                    b.data = Vec::new();
                    self.free_blocks.push(block);
                }
            }
        }
    }

    /// Append `entry` to the edge list `list` ([`NIL`] for an empty one).
    /// The caller checks [`DepLists::fits`] first.
    #[inline]
    pub fn append(&mut self, list: &mut u32, entry: u32) {
        let e = match self.edges.get(self.free_edge as usize) {
            Some(free) => std::mem::replace(&mut self.free_edge, free.next),
            None => {
                self.edges.push(Edge { entry, next: NIL });
                // In range: `fits` bounds the edges.
                (self.edges.len() - 1) as u32
            }
        };
        let first = match self.edges.get_mut(*list as usize) {
            Some(last) => std::mem::replace(&mut last.next, e),
            None => e,
        };
        self.edges[e as usize] = Edge { entry, next: first };
        *list = e;
    }

    /// Free the whole edge list `list` and leave it empty.
    #[inline]
    pub fn free(&mut self, list: &mut u32) {
        let last = std::mem::replace(list, NIL);
        if let Some(edge) = self.edges.get_mut(last as usize) {
            self.free_edge = std::mem::replace(&mut edge.next, self.free_edge);
        }
    }

    /// A walk over row `row` of `block`, then the edge list `list`; either
    /// may be [`NIL`], and a freed block has empty rows.
    #[inline]
    #[must_use]
    pub fn walk(&self, block: u32, row: usize, list: u32) -> Walk {
        let offsets = self.blocks.get(block as usize).map(|b| &b.data);
        let offset = |r: usize| offsets.and_then(|d| d.get(r)).map_or(0, |&o| o as usize);
        Walk {
            block,
            at: offset(row),
            end: offset(row + 1),
            edge: self.edges.get(list as usize).map_or(NIL, |last| last.next),
            last: list,
        }
    }

    /// The walk's next entry: its row's in order, then its list's in the
    /// order they were appended.
    #[inline]
    pub fn next_entry(&self, walk: &mut Walk) -> Option<u32> {
        if walk.at < walk.end {
            let entry = self.blocks.get(walk.block as usize)?.data.get(walk.at);
            walk.at += 1;
            return entry.copied();
        }
        let edge = self.edges.get(walk.edge as usize)?;
        walk.edge = if walk.edge == walk.last {
            NIL
        } else {
            edge.next
        };
        Some(edge.entry)
    }

    /// The entries of a walk, in [`DepLists::next_entry`]'s order.
    #[inline]
    pub fn entries(&self, mut walk: Walk) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || self.next_entry(&mut walk))
    }

    /// Blocks holding rows, and edges on some list (a walk of the free
    /// list).
    #[must_use]
    pub fn held(&self) -> (usize, usize) {
        let mut free = 0;
        let mut e = self.free_edge;
        while let Some(edge) = self.edges.get(e as usize) {
            free += 1;
            e = edge.next;
        }
        let (blocks, edges) = self.allocated();
        (blocks - self.free_blocks.len(), edges - free)
    }

    /// Blocks and edges allocated, held or free.
    #[must_use]
    pub fn allocated(&self) -> (usize, usize) {
        (self.blocks.len(), self.edges.len())
    }
}
