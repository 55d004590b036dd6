//! The machinery behind the job spec's one declaration (the
//! `spec_blocks!` invocation in [`crate::spec`]): how a key's value is
//! written and read ([`Value`]), how a block's keys sit in one JSON
//! object ([`Block`]), and the macro that derives both for every block
//! from its declared keys.

use crate::error::RuntimeError;
use crate::json::Json;
use crate::spec::spec_err;
use od_core::registry::{ParamValue, ProtocolParams};

/// The job's own context. The job's keys go bare in messages
/// (`trials must be …`); every other key is named by its path
/// (`graph.weights.seed must be …`).
pub(crate) const JOB: &str = "job";

/// The path of `key` inside the block at `ctx`.
fn key_path(ctx: &str, key: &str) -> String {
    if ctx == JOB {
        key.to_string()
    } else {
        format!("{ctx}.{key}")
    }
}

fn expected(path: &str, what: &str) -> RuntimeError {
    spec_err(&format!("{path} must be {what}"))
}

/// A key's value type: its written form and its typed reader.
pub(crate) trait Value: Sized {
    fn write(&self) -> Json;
    /// Reads the value at `path`; an absent key reads as `null`.
    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError>;
}

impl Value for u64 {
    /// A JSON integer when it fits `i64`, else a decimal string, so
    /// high-bit seeds round-trip losslessly.
    fn write(&self) -> Json {
        i64::try_from(*self).map_or_else(|_| Json::Str(self.to_string()), Json::Int)
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        match value {
            Json::Str(s) => s.parse().ok(),
            other => other.as_u64(),
        }
        .ok_or_else(|| expected(path, "a non-negative integer"))
    }
}

impl Value for usize {
    /// Always a JSON integer, as specs have always been hashed: past
    /// `i64::MAX` it wraps, but so many opinion slots never validate.
    fn write(&self) -> Json {
        Json::Int(*self as i64)
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        u64::read(value, path).map(|v| v as usize)
    }
}

impl Value for u32 {
    fn write(&self) -> Json {
        Json::Int(i64::from(*self))
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        let raw = u64::read(value, path)?;
        u32::try_from(raw).map_err(|_| spec_err(&format!("{path} = {raw} does not fit u32")))
    }
}

impl Value for f64 {
    fn write(&self) -> Json {
        Json::Float(*self)
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        value.as_f64().ok_or_else(|| expected(path, "a number"))
    }
}

impl Value for bool {
    fn write(&self) -> Json {
        Json::Bool(*self)
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        value.as_bool().ok_or_else(|| expected(path, "a boolean"))
    }
}

impl Value for String {
    fn write(&self) -> Json {
        Json::Str(self.clone())
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| expected(path, "a string"))
    }
}

impl<T: Value> Value for Vec<T> {
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(Value::write).collect())
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        let items = value.as_array().ok_or_else(|| expected(path, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, &format!("{path}[{i}]")))
            .collect()
    }
}

/// Absent or `null` reads as `None`.
impl<T: Value> Value for Option<T> {
    fn write(&self) -> Json {
        self.as_ref().map_or(Json::Null, Value::write)
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        match value {
            Json::Null => Ok(None),
            other => T::read(other, path).map(Some),
        }
    }
}

/// An explicit edge weight: `[u, v, weight]`.
impl Value for (u64, u64, u32) {
    fn write(&self) -> Json {
        Json::Arr(vec![self.0.write(), self.1.write(), self.2.write()])
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        match value.as_array() {
            Some([u, v, w]) => Ok((
                u64::read(u, &format!("{path}[0]"))?,
                u64::read(v, &format!("{path}[1]"))?,
                u32::read(w, &format!("{path}[2]"))?,
            )),
            _ => Err(expected(path, "a [u, v, weight] triple")),
        }
    }
}

/// Registry parameters: an object of non-negative integers and floats.
impl Value for ProtocolParams {
    fn write(&self) -> Json {
        let mut obj = Json::object();
        for (key, value) in self.iter() {
            let value = match value {
                ParamValue::Int(v) => Json::Int(v as i64),
                ParamValue::Float(v) => Json::Float(v),
            };
            obj.insert(key, value);
        }
        obj
    }

    fn read(value: &Json, path: &str) -> Result<Self, RuntimeError> {
        let map = value
            .as_object()
            .ok_or_else(|| expected(path, "an object"))?;
        let mut params = ProtocolParams::new();
        for (key, param) in map {
            let parsed = match param {
                Json::Int(v) if *v >= 0 => ParamValue::Int(*v as u64),
                Json::Float(v) => ParamValue::Float(*v),
                _ => {
                    return Err(expected(
                        &format!("{path}.{key}"),
                        "a non-negative integer or a float",
                    ))
                }
            };
            params.set(key, parsed);
        }
        Ok(params)
    }
}

/// The keys one block holds in a JSON object: a record's keys, or a
/// tagged enum's tag and its variant's keys.
pub(crate) trait Block: Sized {
    /// Writes the block's keys into the object `obj`.
    fn write_keys(&self, obj: &mut Json);
    /// Pushes every key the object `obj` may hold for this block.
    fn allowed_keys(
        obj: &Json,
        ctx: &str,
        allowed: &mut Vec<&'static str>,
    ) -> Result<(), RuntimeError>;
    /// Reads the block from the object `obj`.
    fn read_keys(obj: &Json, ctx: &str) -> Result<Self, RuntimeError>;
}

/// Writes `block` as an object of its own.
pub(crate) fn write_block<T: Block>(block: &T) -> Json {
    let mut obj = Json::object();
    block.write_keys(&mut obj);
    obj
}

/// Reads the object `value` at `path` as a block. A key the block does
/// not hold is a typed error: a misspelled field must fail loudly, not
/// silently change what is simulated.
pub(crate) fn read_block<T: Block>(value: &Json, path: &str) -> Result<T, RuntimeError> {
    let map = value
        .as_object()
        .ok_or_else(|| expected(path, "an object"))?;
    let mut allowed = Vec::new();
    T::allowed_keys(value, path, &mut allowed)?;
    if let Some(key) = map.keys().find(|key| !allowed.contains(&key.as_str())) {
        return Err(spec_err(&format!(
            "unknown field '{path}.{key}' (allowed: {})",
            allowed.join(", ")
        )));
    }
    T::read_keys(value, path)
}

/// Writes `key` unless its value is the one `omitted` names.
pub(crate) fn write_key<T: Value + PartialEq>(
    obj: &mut Json,
    key: &str,
    value: &T,
    omitted: Option<&T>,
) {
    if omitted != Some(value) {
        obj.insert(key, value.write());
    }
}

/// Reads `key` of the object `obj`: `default` when the key is absent.
pub(crate) fn read_key<T: Value>(
    obj: &Json,
    ctx: &str,
    key: &str,
    default: Option<T>,
) -> Result<T, RuntimeError> {
    match (obj.get(key), default) {
        (None, Some(default)) => Ok(default),
        (value, _) => T::read(value.unwrap_or(&Json::Null), &key_path(ctx, key)),
    }
}

/// Reads the tag at `key` that names a variant: `default` when absent.
pub(crate) fn read_tag<'j>(
    obj: &'j Json,
    ctx: &str,
    key: &str,
    default: Option<&'static str>,
) -> Result<&'j str, RuntimeError> {
    match (obj.get(key), default) {
        (None, Some(default)) => Ok(default),
        (value, _) => value
            .and_then(Json::as_str)
            .ok_or_else(|| expected(&key_path(ctx, key), "a string")),
    }
}

pub(crate) fn unknown_tag(ctx: &str, key: &str, tag: &str, known: &[&str]) -> RuntimeError {
    spec_err(&format!(
        "unknown {} '{tag}' (known: {})",
        key_path(ctx, key),
        known.join(", ")
    ))
}

/// Declares spec blocks and derives each one's [`Block`] and [`Value`]
/// impls: the writer, the reader, and the allowed keys the reader checks
/// an object against.
///
/// A `record` lists its keys as `kind name: Type`, with `= default` when
/// the key may be absent (a key without one is required). Kind `key` is
/// always written; `omit` is left out of the written form when it holds
/// its default; `flat` merges a tagged enum's tag and variant keys into
/// the record's own object. `name + more: Type` reads the key into the
/// fields `name, more…` through `Type::into_parts` and writes it back
/// through `Type::from_parts`. `check f` runs `f(obj, ctx)` before the
/// object's keys are checked.
///
/// An `enum` names its tag key with the same `key`/`omit` kinds and an
/// optional default tag, then lists its variants as `Variant = "tag"`
/// with their keys in braces (unit and struct variants) or their one key
/// in parentheses (tuple variants). The allowed keys are the tag, then
/// the named variant's keys.
macro_rules! spec_blocks {
    () => {};
    (
        record $T:ident $(check $check:ident)? {
            $( $kind:ident $field:ident $(+ $more:ident)* : $ty:ty $(= $default:expr)? ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        impl $crate::spec_keys::Block for $T {
            fn write_keys(&self, obj: &mut $crate::json::Json) {
                $( spec_blocks!(@write $kind obj $field
                    &spec_blocks!(@get self $ty, $field $($more)*) $(, $default)?); )*
            }

            #[allow(unused_variables)]
            fn allowed_keys(
                obj: &$crate::json::Json,
                ctx: &str,
                allowed: &mut Vec<&'static str>,
            ) -> Result<(), $crate::RuntimeError> {
                $( $check(obj, ctx)?; )?
                $( spec_blocks!(@allowed $kind obj ctx allowed $field $ty); )*
                Ok(())
            }

            fn read_keys(obj: &$crate::json::Json, ctx: &str) -> Result<Self, $crate::RuntimeError> {
                $( let spec_blocks!(@bind $field $($more)*) = spec_blocks!(@parts $ty,
                    spec_blocks!(@read $kind obj ctx $field $ty $(, $default)?)? $(, $more)*); )*
                Ok(Self { $( $field, $($more,)* )* })
            }
        }
        spec_blocks!(@value $T);
        spec_blocks! { $($rest)* }
    };
    (
        enum $T:ident: $tkind:ident $tag:ident $(= $tdefault:literal)? {
            $( $V:ident = $name:literal $body:tt ),* $(,)?
        }
        $($rest:tt)*
    ) => {
        impl $T {
            /// The variant's tag in the written form.
            fn tag(&self) -> &'static str {
                match self {
                    $( Self::$V { .. } => $name, )*
                }
            }
        }

        impl $crate::spec_keys::Block for $T {
            fn write_keys(&self, obj: &mut $crate::json::Json) {
                let tag = self.tag();
                if spec_blocks!(@omitted $tkind $(, $tdefault)?) != Some(&tag) {
                    obj.insert(stringify!($tag), $crate::json::Json::Str(tag.to_string()));
                }
                match self {
                    $( spec_blocks!(@pattern $V $body) => { spec_blocks!(@write_body obj $body); } )*
                }
            }

            fn allowed_keys(
                obj: &$crate::json::Json,
                ctx: &str,
                allowed: &mut Vec<&'static str>,
            ) -> Result<(), $crate::RuntimeError> {
                allowed.push(stringify!($tag));
                let default = spec_blocks!(@default $($tdefault)?);
                match $crate::spec_keys::read_tag(obj, ctx, stringify!($tag), default)? {
                    $( $name => { spec_blocks!(@allowed_body obj ctx allowed $body); } )*
                    other => {
                        let known = [$($name),*];
                        return Err($crate::spec_keys::unknown_tag(ctx, stringify!($tag), other, &known));
                    }
                }
                Ok(())
            }

            fn read_keys(obj: &$crate::json::Json, ctx: &str) -> Result<Self, $crate::RuntimeError> {
                let default = spec_blocks!(@default $($tdefault)?);
                Ok(match $crate::spec_keys::read_tag(obj, ctx, stringify!($tag), default)? {
                    $( $name => spec_blocks!(@read_body obj ctx $V $body), )*
                    other => {
                        let known = [$($name),*];
                        return Err($crate::spec_keys::unknown_tag(ctx, stringify!($tag), other, &known));
                    }
                })
            }
        }
        spec_blocks!(@value $T);
        spec_blocks! { $($rest)* }
    };

    // A block as a key's value: an object of its own.
    (@value $T:ident) => {
        impl $crate::spec_keys::Value for $T {
            fn write(&self) -> $crate::json::Json {
                $crate::spec_keys::write_block(self)
            }

            fn read(value: &$crate::json::Json, path: &str) -> Result<Self, $crate::RuntimeError> {
                $crate::spec_keys::read_block(value, path)
            }
        }
    };

    // One key: written, listed as allowed, read.
    (@write flat $obj:ident $name:ident $value:expr) => {
        $crate::spec_keys::Block::write_keys($value, $obj)
    };
    (@write $kind:ident $obj:ident $name:ident $value:expr $(, $default:expr)?) => {
        $crate::spec_keys::write_key(
            $obj, stringify!($name), $value, spec_blocks!(@omitted $kind $(, $default)?))
    };
    (@allowed flat $obj:ident $ctx:ident $allowed:ident $name:ident $ty:ty) => {
        <$ty as $crate::spec_keys::Block>::allowed_keys($obj, $ctx, $allowed)?
    };
    (@allowed $kind:ident $obj:ident $ctx:ident $allowed:ident $name:ident $ty:ty) => {
        $allowed.push(stringify!($name))
    };
    (@read flat $obj:ident $ctx:ident $name:ident $ty:ty) => {
        <$ty as $crate::spec_keys::Block>::read_keys($obj, $ctx)
    };
    (@read $kind:ident $obj:ident $ctx:ident $name:ident $ty:ty $(, $default:expr)?) => {
        $crate::spec_keys::read_key::<$ty>(
            $obj, $ctx, stringify!($name), spec_blocks!(@default $($default)?))
    };
    (@default) => { None };
    (@default $default:expr) => { Some($default) };
    (@omitted key $(, $default:expr)?) => { None };
    (@omitted omit, $default:expr) => { Some(&$default) };

    // A key read into several fields.
    (@get $self:ident $ty:ty, $field:ident) => { $self.$field };
    (@get $self:ident $ty:ty, $field:ident $($more:ident)+) => {
        <$ty>::from_parts(($self.$field.clone(), $($self.$more.clone()),+))
    };
    (@bind $field:ident) => { $field };
    (@bind $field:ident $($more:ident)+) => { ($field, $($more),+) };
    (@parts $ty:ty, $value:expr) => { $value };
    (@parts $ty:ty, $value:expr, $($more:ident),+) => { <$ty>::into_parts($value) };

    // A variant's keys: braces for unit and struct variants, parentheses
    // for a tuple variant's one key.
    (@pattern $V:ident { $( $kind:ident $field:ident : $ty:ty $(= $default:expr)? ),* }) => {
        Self::$V { $($field),* }
    };
    (@pattern $V:ident ( $kind:ident $field:ident : $ty:ty $(= $default:expr)? )) => {
        Self::$V($field)
    };
    (@write_body $obj:ident ( $($key:tt)* )) => { spec_blocks!(@write_body $obj { $($key)* }) };
    (@write_body $obj:ident { $( $kind:ident $field:ident : $ty:ty $(= $default:expr)? ),* }) => {
        $( spec_blocks!(@write $kind $obj $field $field $(, $default)?); )*
    };
    (@allowed_body $obj:ident $ctx:ident $allowed:ident ( $($key:tt)* )) => {
        spec_blocks!(@allowed_body $obj $ctx $allowed { $($key)* })
    };
    (@allowed_body $obj:ident $ctx:ident $allowed:ident
        { $( $kind:ident $field:ident : $ty:ty $(= $default:expr)? ),* }) => {
        $( spec_blocks!(@allowed $kind $obj $ctx $allowed $field $ty); )*
    };
    (@read_body $obj:ident $ctx:ident $V:ident
        { $( $kind:ident $field:ident : $ty:ty $(= $default:expr)? ),* }) => {
        Self::$V { $( $field: spec_blocks!(@read $kind $obj $ctx $field $ty $(, $default)?)? ),* }
    };
    (@read_body $obj:ident $ctx:ident $V:ident
        ( $kind:ident $field:ident : $ty:ty $(= $default:expr)? )) => {
        Self::$V(spec_blocks!(@read $kind $obj $ctx $field $ty $(, $default)?)?)
    };
}

pub(crate) use spec_blocks;
