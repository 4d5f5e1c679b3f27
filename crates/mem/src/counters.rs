//! One field list per counter struct.
//!
//! A stats struct declared inside [`counters!`](macro@crate::counters) is
//! emitted exactly as written and also implements [`Counters`], so every
//! site that must list each counter — the stats JSON codec, checkpoint and
//! disk decode, shard merges — walks the visitor instead of naming fields.

/// The field names leading to a counter, outermost first.
pub type Path = Vec<&'static str>;
/// Called with each leaf counter's path and value.
pub type Visit<'a> = dyn FnMut(&[&'static str], u64) + 'a;
/// Called with each leaf counter's path and a mutable borrow of it.
pub type VisitMut<'a> = dyn FnMut(&[&'static str], &mut u64) + 'a;

/// Named `u64` event counters, possibly nested. Implemented by
/// [`counters!`](macro@crate::counters); a bare `u64` is the one-leaf case.
pub trait Counters {
    /// Calls `f` on every leaf counter, depth first in declaration order.
    /// `path` holds the names leading to `self` and is restored on return.
    fn visit(&self, path: &mut Path, f: &mut Visit<'_>);
    /// [`Counters::visit`] with a mutable borrow of each leaf.
    fn visit_mut(&mut self, path: &mut Path, f: &mut VisitMut<'_>);
}

impl Counters for u64 {
    fn visit(&self, path: &mut Path, f: &mut Visit<'_>) {
        f(path, *self)
    }
    fn visit_mut(&mut self, path: &mut Path, f: &mut VisitMut<'_>) {
        f(path, self)
    }
}

/// Declares counter structs: each struct is emitted verbatim (names, field
/// order, types, visibility, docs and derives) and implements [`Counters`].
/// Every field must be a `u64` or another [`Counters`] struct.
#[macro_export]
macro_rules! counters {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: $ty,
            )*
        }

        impl $crate::Counters for $name {
            fn visit(&self, path: &mut $crate::counters::Path, f: &mut $crate::counters::Visit<'_>) {
                $(
                    path.push(stringify!($field));
                    $crate::Counters::visit(&self.$field, path, f);
                    path.pop();
                )*
            }
            fn visit_mut(&mut self, path: &mut $crate::counters::Path, f: &mut $crate::counters::VisitMut<'_>) {
                $(
                    path.push(stringify!($field));
                    $crate::Counters::visit_mut(&mut self.$field, path, f);
                    path.pop();
                )*
            }
        }
    )*};
}

/// Adds every counter of `other` into the matching counter of `this`.
pub fn add_counters<C: Counters>(this: &mut C, other: &C) {
    let mut values = Vec::new();
    other.visit(&mut Vec::new(), &mut |_, v| values.push(v));
    let mut values = values.into_iter();
    this.visit_mut(&mut Vec::new(), &mut |_, v| {
        *v += values.next().unwrap_or(0)
    });
}
